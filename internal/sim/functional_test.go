package sim

import (
	"fmt"
	"testing"

	"needle/internal/interp"
	"needle/internal/interp/interpref"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/region"
	"needle/internal/spec"
	"needle/internal/workloads"
)

// functionalResult summarizes a functional offload run.
type functionalResult struct {
	Ret         uint64
	Invocations int64
	Successes   int64
	Rollbacks   int64
	FrameOps    int64 // dynamic instructions executed inside frames
	HostBlocks  int64 // blocks executed on the host path
}

// functionalOffload executes the program *functionally* with the offload
// target in the loop: whenever control reaches the target region's entry
// and the predictor says offload, the region runs through the speculative
// frame executor (undo log and all); a guard failure rolls memory back and
// the host re-executes the region block by block on the reference stepper.
// The final return value and memory must be bit-identical to a pure host
// run — the correctness contract of the paper's software speculation.
func functionalOffload(f *ir.Function, args []uint64, mem []uint64, tgt *Target, pred spec.Predictor, maxBlocks int64) (functionalResult, error) {
	var res functionalResult
	if len(args) != f.NumParams() {
		return res, fmt.Errorf("sim: %s wants %d args, got %d", f.Name, f.NumParams(), len(args))
	}
	if maxBlocks <= 0 {
		maxBlocks = 1 << 28
	}
	regs := make([]uint64, len(f.RegType))
	for i, a := range args {
		regs[f.Param(i)] = a
	}
	ht := &spec.HistoryTracker{}

	cur := f.Entry()
	var prev *ir.Block
	var steps int64
	for {
		steps++
		if steps > maxBlocks {
			return res, fmt.Errorf("sim: functional offload exceeded %d blocks", maxBlocks)
		}
		if cur == tgt.Region.Entry && pred.Predict(ht.H) {
			res.Invocations++
			hist := ht.H
			// The frame receives a copy of the register file: no
			// architectural state is shared with the host (Section V), so a
			// failed frame leaks nothing — memory reverts via the undo log
			// and registers were never the frame's to change.
			fregs := append([]uint64(nil), regs...)
			out, err := spec.ExecuteFrame(tgt.Frame, fregs, mem, prev)
			if err != nil {
				return res, err
			}
			res.FrameOps += int64(out.Ops)
			pred.Update(hist, out.Success)
			if out.Success {
				res.Successes++
				if out.Returned {
					res.Ret = out.Ret
					return res, nil
				}
				// Commit live values back to the host: everything the frame
				// defined, plus the region entry phis it resolved.
				for r := range tgt.Frame.Def {
					regs[r] = fregs[r]
				}
				for _, phi := range tgt.Region.Entry.Phis() {
					regs[phi.Dst] = fregs[phi.Dst]
				}
				prev, cur = out.Prev, out.Next
				continue
			}
			// Memory was rolled back inside ExecuteFrame; the host
			// re-executes the region (and whatever follows) block by block.
			res.Rollbacks++
		}
		next, ret, returned, err := interpref.Step(f, cur, prev, regs, mem)
		if err != nil {
			return res, err
		}
		res.HostBlocks++
		if returned {
			res.Ret = ret
			return res, nil
		}
		if t := cur.Term(); t.Op == ir.OpCondBr {
			ht.Shift(t.Blocks[0] == next)
		}
		prev, cur = cur, next
	}
}

// TestFunctionalOffloadMatchesPureExecution is the end-to-end correctness
// contract of software speculation: interleaving host execution with
// speculative frames (including failures and rollbacks) must produce
// bit-identical results and memory to a pure host run.
func TestFunctionalOffloadMatchesPureExecution(t *testing.T) {
	for _, tc := range []struct {
		workload string
		braid    bool
	}{
		{"181.mcf", false},
		{"456.hmmer", true},
		{"bodytrack", true}, // noisy: exercises failures+rollbacks
		{"164.gzip", false}, // early-exit chains
		{"470.lbm", true},   // store-heavy
		{"freqmine", false}, // store-bearing divergent paths
	} {
		tc := tc
		t.Run(tc.workload, func(t *testing.T) {
			w := workloads.ByName(tc.workload)
			f, args, mem1 := w.Instance(900)
			pure, err := interp.Exec(f, args, mem1, 0)
			if err != nil {
				t.Fatal(err)
			}

			// Fresh memory for profiling, then a third copy for the
			// functional offload run.
			_, args2, memProfile := w.Instance(900)
			cfg := DefaultConfig()
			tr, err := Capture(nil, f, args2, memProfile, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var tgt *Target
			if tc.braid {
				braids := region.BuildBraids(tr.Profile, 0)
				tgt, err = NewBraidTarget(nil, tr.Profile, braids[0], cfg)
			} else {
				tgt, err = NewPathTarget(nil, tr.Profile, tr.Profile.HottestPath(), cfg)
			}
			if err != nil {
				t.Fatal(err)
			}

			_, args3, mem3 := w.Instance(900)
			res, err := functionalOffload(f, args3, mem3, tgt, spec.Always{}, 0)
			if err != nil {
				t.Fatalf("functionalOffload: %v", err)
			}
			if res.Ret != pure.Ret {
				t.Fatalf("offloaded result %d != pure result %d", res.Ret, pure.Ret)
			}
			for i := range mem1 {
				if mem1[i] != mem3[i] {
					t.Fatalf("memory diverged at word %d", i)
				}
			}
			if res.Invocations == 0 {
				t.Fatal("the target was never invoked")
			}
			t.Logf("%s: %d invocations, %d successes, %d rollbacks, %d frame ops",
				tc.workload, res.Invocations, res.Successes, res.Rollbacks, res.FrameOps)
		})
	}
}

// TestFunctionalOffloadOnRandomPrograms: the full speculation loop (frames,
// undo log, rollback, host re-execution) must be observationally identical
// to pure interpretation on random programs, for both path and braid
// targets.
func TestFunctionalOffloadOnRandomPrograms(t *testing.T) {
	cfg := DefaultConfig()
	checked := 0
	for seed := int64(0); seed < 150; seed += 2 {
		p := irgen.Generate(seed, irgen.Config{})
		memPure := p.NewMem()
		pure, err := interp.Exec(p.F, []uint64{interp.IBits(21)}, memPure, 1<<22)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		tr, err := Capture(nil, p.F, []uint64{interp.IBits(21)}, p.NewMem(), cfg)
		if err != nil {
			t.Fatalf("seed %d: capture: %v", seed, err)
		}
		targets := []*Target{}
		if tgt, err := NewPathTarget(nil, tr.Profile, tr.Profile.HottestPath(), cfg); err == nil {
			targets = append(targets, tgt)
		}
		if braids := region.BuildBraids(tr.Profile, 0); len(braids) > 0 {
			if tgt, err := NewBraidTarget(nil, tr.Profile, braids[0], cfg); err == nil {
				targets = append(targets, tgt)
			}
		}
		for ti, tgt := range targets {
			memOff := p.NewMem()
			res, err := functionalOffload(p.F, []uint64{interp.IBits(21)}, memOff, tgt, spec.Always{}, 1<<22)
			if err != nil {
				t.Fatalf("seed %d target %d: %v", seed, ti, err)
			}
			if res.Ret != pure.Ret {
				t.Fatalf("seed %d target %d: result %d != pure %d", seed, ti, res.Ret, pure.Ret)
			}
			for i := range memPure {
				if memPure[i] != memOff[i] {
					t.Fatalf("seed %d target %d: memory diverged at %d", seed, ti, i)
				}
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d target runs checked", checked)
	}
}
