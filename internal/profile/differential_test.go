package profile

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/interp/interpref"
	"needle/internal/ir"
	"needle/internal/irgen"
)

// feedEvent is one dynamic instruction as a timing model sees it. dst is
// -1 for instructions without a destination; addr is only meaningful (and
// only recorded) for memory operations.
type feedEvent struct {
	op   ir.Op
	dst  int32
	addr int64
}

// recTiming records the exact event stream a timing model would see, so a
// planned run (block feeds, decoded from the packet entries) and the
// reference interpreter (per-instruction feeds, read from the *ir.Instr)
// can be compared instruction by instruction.
type recTiming struct {
	feeds    []feedEvent
	branches []bool
}

func (r *recTiming) FeedBlock(pk *interp.TimingPacket, n int, addrs []int64) {
	for _, e := range pk.Ent[:n] {
		ev := feedEvent{op: ir.Op(e.Op), dst: e.Dst}
		if e.Class == interp.TimingClassMem {
			ev.addr, addrs = addrs[0], addrs[1:]
		}
		r.feeds = append(r.feeds, ev)
	}
}

func (r *recTiming) Feed(in *ir.Instr, addr int64) {
	ev := feedEvent{op: in.Op, dst: -1}
	if in.Op.HasDest() {
		ev.dst = int32(in.Dst)
	}
	if in.Op.IsMemory() {
		ev.addr = addr
	}
	r.feeds = append(r.feeds, ev)
}

func (r *recTiming) NoteBranch(taken bool) { r.branches = append(r.branches, taken) }

// runStyle profiles f once and returns everything observable: the result,
// the final memory, the timing event stream, the branch-history register,
// the OnPath ID sequence, and the profile. ref runs the hook-driven
// reference interpreter with the reference profiler instead of the plan.
// timed attaches the timing recorder and history register (call-bearing
// functions refuse them on the plan).
func runStyle(t *testing.T, f *ir.Function, initMem []uint64, args []uint64, ref, timed bool, maxSteps int64) (
	interp.Result, error, []uint64, *recTiming, uint64, []int64, *FunctionProfile,
) {
	t.Helper()
	var ids []int64
	onPath := func(id int64) { ids = append(ids, id) }
	mem := append([]uint64(nil), initMem...)
	tm := &recTiming{}
	var hist uint64
	var res interp.Result
	var runErr error
	var fp *FunctionProfile
	if ref {
		dag, err := ballarus.Build(nil, f)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		prof := interpref.NewProfiler(dag)
		prof.RecordTrace = true
		prof.OnPath = onPath
		hooks := []*interpref.Hooks{prof.Hooks()}
		if timed {
			hooks = append(hooks, interpref.TimingHooks(tm), interpref.HistoryHooks(&hist))
		}
		res, runErr = interpref.Run(f, args, mem, maxSteps, hooks...)
		fp = &FunctionProfile{F: f, DAG: dag, Trace: prof.Trace, BlockCounts: prof.Blocks,
			EdgeCounts: make(map[Edge]int64), byID: make(map[int64]*Path)}
		for e, n := range prof.Edges {
			fp.EdgeCounts[Edge{e[0], e[1]}] = n
		}
		if err := fp.rankCounts(prof.Counts); err != nil {
			t.Fatalf("reference profile: %v", err)
		}
		return res, runErr, mem, tm, hist, ids, fp
	}
	c, err := NewCollector(nil, f, true)
	if err != nil {
		t.Fatalf("NewCollector: %v", err)
	}
	c.SetOnPath(onPath)
	if timed {
		res, runErr = c.RunTimed(args, mem, tm, &hist, maxSteps)
	} else {
		res, runErr = c.Run(args, mem, maxSteps)
	}
	if fp, err = c.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return res, runErr, mem, tm, hist, ids, fp
}

func compareProfiles(t *testing.T, seed int64, plan, ref *FunctionProfile) {
	t.Helper()
	if plan == nil || ref == nil {
		t.Fatalf("seed %d: missing profile (plan %v, reference %v)", seed, plan != nil, ref != nil)
	}
	if plan.TotalWeight != ref.TotalWeight {
		t.Fatalf("seed %d: TotalWeight plan=%d reference=%d", seed, plan.TotalWeight, ref.TotalWeight)
	}
	if len(plan.Paths) != len(ref.Paths) {
		t.Fatalf("seed %d: path count plan=%d reference=%d", seed, len(plan.Paths), len(ref.Paths))
	}
	for i := range plan.Paths {
		a, b := plan.Paths[i], ref.Paths[i]
		if a.ID != b.ID || a.Freq != b.Freq || a.Ops != b.Ops || a.Weight != b.Weight {
			t.Fatalf("seed %d: path %d differs: plan={id %d freq %d ops %d} reference={id %d freq %d ops %d}",
				seed, i, a.ID, a.Freq, a.Ops, b.ID, b.Freq, b.Ops)
		}
	}
	if !reflect.DeepEqual(plan.Trace, ref.Trace) {
		t.Fatalf("seed %d: traces differ (plan %d entries, reference %d)", seed, len(plan.Trace), len(ref.Trace))
	}
	if !reflect.DeepEqual(plan.BlockCounts, ref.BlockCounts) {
		t.Fatalf("seed %d: block counts differ\nplan %v\nreference %v", seed, plan.BlockCounts, ref.BlockCounts)
	}
	if !reflect.DeepEqual(plan.EdgeCounts, ref.EdgeCounts) {
		t.Fatalf("seed %d: edge counts differ\nplan %v\nreference %v", seed, plan.EdgeCounts, ref.EdgeCounts)
	}
}

// TestFastPathMatchesHooksOnRandomCFGs is the differential oracle for the
// compiled plans: across hundreds of random structured CFGs, RunProfiled
// must be observationally identical to the hook-driven reference
// interpreter — same return value and step count, same final memory, same
// timing event stream (instructions, memory addresses and branch outcomes
// in order), same history register, same OnPath sequence, and an identical
// finished profile.
func TestFastPathMatchesHooksOnRandomCFGs(t *testing.T) {
	const seeds = 300
	cfg := irgen.DefaultConfig()
	for seed := int64(0); seed < seeds; seed++ {
		p := irgen.Generate(seed, cfg)
		args := []uint64{uint64(seed*7 + 3)}

		resF, errF, memF, tmF, histF, idsF, fpF := runStyle(t, p.F, p.Mem, args, false, true, 0)
		resH, errH, memH, tmH, histH, idsH, fpH := runStyle(t, p.F, p.Mem, args, true, true, 0)
		if errF != nil || errH != nil {
			t.Fatalf("seed %d: run errors: plan=%v reference=%v", seed, errF, errH)
		}
		if resF != resH {
			t.Fatalf("seed %d: result plan=%+v reference=%+v", seed, resF, resH)
		}
		if !reflect.DeepEqual(memF, memH) {
			t.Fatalf("seed %d: final memory differs", seed)
		}
		if !reflect.DeepEqual(tmF.feeds, tmH.feeds) {
			t.Fatalf("seed %d: timing feed streams differ (plan %d events, reference %d)",
				seed, len(tmF.feeds), len(tmH.feeds))
		}
		if !reflect.DeepEqual(tmF.branches, tmH.branches) {
			t.Fatalf("seed %d: branch outcome streams differ", seed)
		}
		if histF != histH {
			t.Fatalf("seed %d: history register plan=%#x reference=%#x", seed, histF, histH)
		}
		if !reflect.DeepEqual(idsF, idsH) {
			t.Fatalf("seed %d: OnPath sequences differ", seed)
		}
		compareProfiles(t, seed, fpF, fpH)
	}
}

// TestFastPathParallelCondBr covers the degenerate condbr whose two targets
// are the same block: the CFG has a single edge (and a single Ball-Larus
// annotation) for it, and the reference reports the branch as taken on
// either side. The plan must agree on counts, history bits, and the
// timing model's branch stream.
func TestFastPathParallelCondBr(t *testing.T) {
	src := `func @par(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [step: r8]
  r4 = cmp.lt r3, r1
  condbr r4, %body, %exit
body:
  r5 = and r3, r4
  condbr r5, %step, %step
step:
  r7 = const.i64 1
  r8 = add r3, r7
  br %head
exit:
  ret r3
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	args := []uint64{interp.IBits(25)}
	resF, errF, _, tmF, histF, idsF, fpF := runStyle(t, f, nil, args, false, true, 0)
	resH, errH, _, tmH, histH, idsH, fpH := runStyle(t, f, nil, args, true, true, 0)
	if errF != nil || errH != nil {
		t.Fatalf("run errors: plan=%v reference=%v", errF, errH)
	}
	if resF != resH {
		t.Fatalf("result plan=%+v reference=%+v", resF, resH)
	}
	if histF != histH {
		t.Fatalf("history plan=%#x reference=%#x", histF, histH)
	}
	if !reflect.DeepEqual(tmF.branches, tmH.branches) {
		t.Fatalf("branch streams differ:\nplan %v\nreference %v", tmF.branches, tmH.branches)
	}
	if !reflect.DeepEqual(idsF, idsH) {
		t.Fatal("OnPath sequences differ")
	}
	compareProfiles(t, -1, fpF, fpH)
}

// TestFastPathStepLimitMatchesHooks checks that the plan enforces the step
// budget at exactly the same instruction as the reference interpreter, with
// the same error message — phis and terminators included — on random CFGs
// and, at every position of the run, through the calls of a recursive
// function, where callees spend their caller's budget: results, error
// texts and partial profiles must match.
func TestFastPathStepLimitMatchesHooks(t *testing.T) {
	check := func(what string, f *ir.Function, mem, args []uint64, limit int64) {
		t.Helper()
		resF, errF, _, _, _, idsF, fpF := runStyle(t, f, mem, args, false, false, limit)
		resH, errH, _, _, _, idsH, fpH := runStyle(t, f, mem, args, true, false, limit)
		if (errF == nil) != (errH == nil) || errF != nil && errF.Error() != errH.Error() {
			t.Fatalf("%s limit %d: plan err %v, reference err %v", what, limit, errF, errH)
		}
		if resF.Steps != resH.Steps || !reflect.DeepEqual(idsF, idsH) {
			t.Fatalf("%s limit %d: steps plan=%d reference=%d", what, limit, resF.Steps, resH.Steps)
		}
		compareProfiles(t, limit, fpF, fpH)
	}
	cfg := irgen.DefaultConfig()
	for seed := int64(0); seed < 40; seed++ {
		p := irgen.Generate(seed, cfg)
		args := []uint64{uint64(seed + 11)}
		for _, limit := range []int64{1, 2, 3, 7, 50, 1000} {
			check(fmt.Sprintf("seed %d", seed), p.F, p.Mem, args, limit)
		}
	}

	m, err := ir.Parse(recSrc)
	if err != nil {
		t.Fatal(err)
	}
	rec, args := m.Func("rec"), []uint64{interp.IBits(6)}
	full, err := interp.Exec(rec, args, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for limit := int64(1); limit <= full.Steps; limit++ {
		check("rec", rec, nil, args, limit)
	}
}

// recSrc is a self-recursive function: rec(n) = n + rec(n-1), rec(0) = 0.
const recSrc = `func @rec(i64) {
entry:
  r2 = const.i64 0
  r3 = cmp.le r1, r2
  condbr r3, %base, %step
base:
  ret r2
step:
  r4 = const.i64 1
  r5 = sub r1, r4
  r6 = call.i64 @rec r5
  r7 = add r1, r6
  ret r7
}
`

// entryLoopSrc loops back to its entry block, carrying state in memory.
const entryLoopSrc = `func @eloop(i64) {
entry:
  r2 = const.i64 0
  r3 = load.i64 r2
  r4 = const.i64 1
  r5 = add r3, r4
  store.i64 r2, r5
  r6 = cmp.lt r5, r1
  condbr r6, %entry, %exit
exit:
  ret r5
}
`

// entryPhiSrc puts a phi in the entry block, which no run can resolve.
const entryPhiSrc = `func @ephi(i64) {
entry:
  r2 = phi.i64 [latch: r3]
  r4 = cmp.lt r2, r1
  condbr r4, %latch, %exit
latch:
  r5 = const.i64 1
  r3 = add r2, r5
  br %entry
exit:
  ret r2
}
`

// TestFastPathMatchesHooksOnCallsAndEntryLoops extends the oracle to the
// shapes the plan runs beyond straight inlined kernels: call-bearing
// functions (callees run unprofiled), recursion down to the call-depth
// limit, and entry blocks that are loop headers, with and without an
// (unresolvable) entry phi. Plan and reference must agree on the result,
// steps, memory, error text, OnPath sequence and profile; call-free
// functions are also compared timed, while call-bearing ones must refuse a
// timed run with ErrTimedCall.
func TestFastPathMatchesHooksOnCallsAndEntryLoops(t *testing.T) {
	load := func(path, src, fn string) *ir.Function {
		if path != "" {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src = string(b)
		}
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		return m.Func(fn)
	}
	floats := make([]uint64, 64)
	for i := range floats {
		floats[i] = interp.FBits(float64(i%7) - 2.5)
	}
	for _, tc := range []struct {
		name  string
		f     *ir.Function
		args  []uint64
		mem   []uint64
		calls bool
	}{
		{"norm", load("../ir/testdata/norm.nir", "", "norm"), []uint64{0, 16}, floats, true},
		{"inlining-hot", load("../../examples/inlining/hot.nir", "", "hot"), []uint64{interp.IBits(600)}, nil, true},
		{"rec", load("", recSrc, "rec"), []uint64{interp.IBits(40)}, nil, true},
		{"rec-depth", load("", recSrc, "rec"), []uint64{interp.IBits(300)}, nil, true},
		{"eloop", load("", entryLoopSrc, "eloop"), []uint64{interp.IBits(9)}, make([]uint64, 4), false},
		{"ephi", load("", entryPhiSrc, "ephi"), []uint64{interp.IBits(5)}, nil, false},
	} {
		resF, errF, memF, _, _, idsF, fpF := runStyle(t, tc.f, tc.mem, tc.args, false, false, 0)
		resH, errH, memH, _, _, idsH, fpH := runStyle(t, tc.f, tc.mem, tc.args, true, false, 0)
		if (errF == nil) != (errH == nil) || errF != nil && errF.Error() != errH.Error() {
			t.Fatalf("%s: errors differ: plan %v, reference %v", tc.name, errF, errH)
		}
		if resF != resH || !reflect.DeepEqual(memF, memH) || !reflect.DeepEqual(idsF, idsH) {
			t.Fatalf("%s: plan %+v, reference %+v (memory or OnPath sequence may differ too)", tc.name, resF, resH)
		}
		compareProfiles(t, 0, fpF, fpH)

		_, errT, _, tmF, histF, _, _ := runStyle(t, tc.f, tc.mem, tc.args, false, true, 0)
		if tc.calls {
			if !errors.Is(errT, interp.ErrTimedCall) {
				t.Fatalf("%s: timed call-bearing run: want ErrTimedCall, got %v", tc.name, errT)
			}
			continue
		}
		_, _, _, tmH, histH, _, _ := runStyle(t, tc.f, tc.mem, tc.args, true, true, 0)
		if !reflect.DeepEqual(tmF, tmH) || histF != histH {
			t.Fatalf("%s: timed event streams differ", tc.name)
		}
	}
	if _, err := interp.Exec(load("", recSrc, "rec"), []uint64{interp.IBits(300)}, nil, 0); !errors.Is(err, interp.ErrCallDepth) {
		t.Fatalf("rec(300): want ErrCallDepth, got %v", err)
	}
}
