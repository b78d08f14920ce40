package sim

import (
	"reflect"
	"testing"

	"needle/internal/ballarus"
	"needle/internal/energy"
	"needle/internal/interp/interpref"
	"needle/internal/ir"
	"needle/internal/mem"
	"needle/internal/ooo"
	"needle/internal/passes"
	"needle/internal/workloads"
)

// refCapture is what Capture observes, produced by the hook-driven
// reference interpreter: the reference profiler, the timing model fed one
// instruction at a time, and the history register, all attached to one
// interpref.Run. It is the oracle the plan must match event for event.
type refCapture struct {
	occ     []Occurrence
	prof    *interpref.Profiler
	cycles  int64
	mix     ooo.OpMix
	cache   mem.Stats
	energyP float64
}

func captureRef(t *testing.T, f *ir.Function, args, memory []uint64, cfg Config) *refCapture {
	t.Helper()
	dag, err := ballarus.Build(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	cache := mem.New(cfg.Mem)
	model := ooo.New(cfg.OOO, f.NumRegs(), cache)
	var hist uint64
	ref := &refCapture{prof: interpref.NewProfiler(dag)}
	ref.prof.RecordTrace = true
	var lastCycles int64
	var histBefore uint64
	ref.prof.OnPath = func(id int64) {
		now := model.Cycles()
		ref.occ = append(ref.occ, Occurrence{Path: id, Hist: histBefore, Cycles: now - lastCycles})
		lastCycles = now
		histBefore = hist
	}
	if _, err := interpref.Run(f, args, memory, cfg.MaxSteps, ref.prof.Hooks(), interpref.TimingHooks(model), interpref.HistoryHooks(&hist)); err != nil {
		t.Fatalf("%s: reference run: %v", f.Name, err)
	}
	ref.cycles = model.Cycles()
	ref.mix = model.Mix
	ref.cache = cache.Stats
	ref.energyP = energy.HostEnergyPJ(cfg.CPU, model.Mix, cache.Stats)
	return ref
}

// assertCaptureEquivalent runs Capture and the reference capture on one
// workload — inlined, as the pipeline captures it — and demands identical
// traces: same per-occurrence cycle attribution and history snapshots, same
// baseline cycles, op mix, cache stats, energy, and the same profile.
func assertCaptureEquivalent(t *testing.T, w *workloads.Workload, n int) {
	t.Helper()
	name := w.Name
	cfg := DefaultConfig()
	instance := func() (*ir.Function, []uint64, []uint64) {
		f, args, memory := w.Instance(n)
		inl, err := passes.InlineAll(f, 0)
		if err != nil {
			t.Fatalf("%s: inline: %v", name, err)
		}
		return inl, args, memory
	}

	f, args, memory := instance()
	got, err := Capture(nil, f, args, memory, cfg)
	if err != nil {
		t.Fatalf("%s: capture: %v", name, err)
	}
	f2, args2, memory2 := instance()
	ref := captureRef(t, f2, args2, memory2, cfg)

	if !reflect.DeepEqual(got.Occ, ref.occ) {
		t.Fatalf("%s: occurrence streams differ (plan %d, reference %d)", name, len(got.Occ), len(ref.occ))
	}
	if got.BaselineCycles != ref.cycles {
		t.Errorf("%s: baseline cycles plan=%d reference=%d", name, got.BaselineCycles, ref.cycles)
	}
	if got.Mix != ref.mix {
		t.Errorf("%s: op mix plan=%+v reference=%+v", name, got.Mix, ref.mix)
	}
	if got.CacheStats != ref.cache {
		t.Errorf("%s: cache stats plan=%+v reference=%+v", name, got.CacheStats, ref.cache)
	}
	if got.BaselineEnergyPJ != ref.energyP {
		t.Errorf("%s: energy plan=%v reference=%v", name, got.BaselineEnergyPJ, ref.energyP)
	}
	fp := got.Profile
	if len(fp.Paths) != len(ref.prof.Counts) {
		t.Fatalf("%s: %d executed paths, reference %d", name, len(fp.Paths), len(ref.prof.Counts))
	}
	for _, p := range fp.Paths {
		if ref.prof.Counts[p.ID] != p.Freq {
			t.Fatalf("%s: path %d freq %d, reference %d", name, p.ID, p.Freq, ref.prof.Counts[p.ID])
		}
	}
	if !reflect.DeepEqual(fp.Trace, ref.prof.Trace) {
		t.Fatalf("%s: path traces differ", name)
	}
	if !reflect.DeepEqual(fp.BlockCounts, ref.prof.Blocks) {
		t.Fatalf("%s: block counts differ", name)
	}
	edges := make(map[[2]int]int64, len(fp.EdgeCounts))
	for e, c := range fp.EdgeCounts {
		edges[[2]int{e.From, e.To}] = c
	}
	if !reflect.DeepEqual(edges, ref.prof.Edges) {
		t.Fatalf("%s: edge counts differ", name)
	}
}

// TestCaptureFastMatchesHooked exercises the three biggest captures at a
// deeper iteration count than the whole-suite sweep below.
func TestCaptureFastMatchesHooked(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"456.hmmer", 800},
		{"164.gzip", 800},
		{"183.equake", 500},
	} {
		w := workloads.ByName(tc.name)
		if w == nil {
			t.Fatalf("unknown workload %s", tc.name)
		}
		assertCaptureEquivalent(t, w, tc.n)
	}
}

// TestCaptureFastMatchesHookedAllWorkloads runs the plan-vs-reference
// differential over the entire workload suite at a modest iteration count,
// so every block shape in the corpus (wide phis, dense float kernels,
// irregular control flow, 444.namd's inlined helpers) crosses the batched
// timing feed at least once.
func TestCaptureFastMatchesHookedAllWorkloads(t *testing.T) {
	all := workloads.All()
	if len(all) < 29 {
		t.Fatalf("workload suite shrank: %d workloads, want >= 29", len(all))
	}
	for _, w := range all {
		assertCaptureEquivalent(t, w, 400)
	}
}
