package sim

import (
	"sync"
	"testing"

	"needle/internal/spec"
	"needle/internal/workloads"
)

func capture(t testing.TB, name string, n int) *Trace {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("unknown workload %s", name)
	}
	f, args, memory := w.Instance(n)
	tr, err := Capture(nil, f, args, memory, DefaultConfig())
	if err != nil {
		t.Fatalf("Capture(%s): %v", name, err)
	}
	return tr
}

func TestCaptureAttributionSumsToBaseline(t *testing.T) {
	tr := capture(t, "181.mcf", 800)
	var sum int64
	for _, occ := range tr.Occ {
		sum += occ.Cycles
	}
	// Occurrence cycles partition the baseline (the last path completion
	// coincides with the function return).
	if sum != tr.BaselineCycles {
		t.Fatalf("occurrence cycles sum to %d, baseline %d", sum, tr.BaselineCycles)
	}
	if tr.BaselineEnergyPJ <= 0 {
		t.Fatal("no baseline energy")
	}
	if int64(len(tr.Occ)) != tr.Profile.HottestPath().Freq+sumOtherFreqs(tr) {
		t.Fatal("occurrence count mismatch with profile")
	}
}

func sumOtherFreqs(tr *Trace) int64 {
	var n int64
	for _, p := range tr.Profile.Paths[1:] {
		n += p.Freq
	}
	return n
}

func TestOracleNeverFails(t *testing.T) {
	tr := capture(t, "164.gzip", 1500)
	oracle, history, err := EvaluateHottestPath(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Invocations != oracle.Successes {
		t.Fatalf("oracle failed %d times", oracle.Invocations-oracle.Successes)
	}
	if oracle.Precision != 1.0 && oracle.Invocations > 0 {
		t.Fatalf("oracle precision = %v", oracle.Precision)
	}
	// The oracle bound dominates the history predictor on cycles.
	if history.OffloadCycles < oracle.OffloadCycles {
		t.Fatalf("history (%d) beat the oracle (%d)", history.OffloadCycles, oracle.OffloadCycles)
	}
	if oracle.Opportunities == 0 {
		t.Fatal("no opportunities seen")
	}
}

func TestBraidCoverageAtLeastPathCoverage(t *testing.T) {
	tr := capture(t, "456.hmmer", 1500)
	cfg := DefaultConfig()
	braid, br, err := EvaluateHottestBraid(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, err := EvaluateHottestPath(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if br.MergedPathCount() < 2 {
		t.Skipf("braid merged only %d paths at this scale", br.MergedPathCount())
	}
	if braid.Coverage < oracle.Coverage {
		t.Fatalf("braid coverage %v below path coverage %v", braid.Coverage, oracle.Coverage)
	}
	// Under always-invoke every opportunity is an invocation, and the braid
	// accepts every in-region flow.
	always, _, err := EvaluateBraidAlways(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if always.Invocations != always.Opportunities {
		t.Fatal("always predictor must invoke on every opportunity")
	}
}

func TestEvaluateAccountsFailures(t *testing.T) {
	// bodytrack's noisy branches make single-path offload fail often under
	// always-invoke; failures must cost more than the baseline occurrences.
	tr := capture(t, "bodytrack", 1200)
	cfg := DefaultConfig()
	hot := tr.Profile.HottestPath()
	tgt, err := NewPathTarget(nil, tr.Profile, hot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	always := Evaluate(tr, tgt, spec.Always{}, cfg)
	if always.Invocations != always.Opportunities {
		t.Fatal("always must invoke at every opportunity")
	}
	if always.Successes == always.Invocations {
		t.Skip("no failures at this scale; nothing to check")
	}
	oracle := Evaluate(tr, tgt, &spec.Oracle{}, cfg)
	if always.OffloadCycles <= oracle.OffloadCycles {
		t.Fatal("failures must cost cycles versus the oracle")
	}
	if always.OffloadEnergyPJ <= oracle.OffloadEnergyPJ {
		t.Fatal("failures must cost energy versus the oracle")
	}
}

func TestHighCoverageWorkloadImproves(t *testing.T) {
	// lbm: two paths, huge straight-line FP body — the paper's best case.
	tr := capture(t, "470.lbm", 500)
	cfg := DefaultConfig()
	braid, _, err := EvaluateHottestBraid(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if braid.Improvement <= 0 {
		t.Fatalf("lbm braid improvement = %v, want > 0", braid.Improvement)
	}
	if braid.EnergyReduction <= 0 {
		t.Fatalf("lbm braid energy reduction = %v, want > 0", braid.EnergyReduction)
	}
	if braid.Coverage < 0.5 {
		t.Fatalf("lbm braid coverage = %v, want > 0.5", braid.Coverage)
	}
}

func TestResultInternalConsistency(t *testing.T) {
	for _, name := range []string{"403.gcc", "dwt53", "450.soplex"} {
		tr := capture(t, name, 1000)
		cfg := DefaultConfig()
		braid, _, err := EvaluateHottestBraid(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if braid.Successes > braid.Invocations || braid.Invocations > braid.Opportunities {
			t.Fatalf("%s: counts inconsistent: %+v", name, braid)
		}
		if braid.Coverage < 0 || braid.Coverage > 1 {
			t.Fatalf("%s: coverage out of range: %v", name, braid.Coverage)
		}
		wantImp := float64(braid.BaselineCycles-braid.OffloadCycles) / float64(braid.BaselineCycles)
		if diff := wantImp - braid.Improvement; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: improvement bookkeeping wrong", name)
		}
	}
}

// TestConcurrentTargetsShareProfile: the service evaluates targets of one
// store-shared profile from concurrent requests, so building targets (and
// the dense op table they share through the profile) and evaluating them
// must be race-free — the race detector run of the suite checks it — and
// every goroutine must see the serial result.
func TestConcurrentTargetsShareProfile(t *testing.T) {
	tr := capture(t, "181.mcf", 800)
	cfg := DefaultConfig()
	hot := tr.Profile.HottestPath()
	const workers = 4
	got := make([]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tgt, err := NewPathTarget(tr.AM, tr.Profile, hot, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = Evaluate(tr, tgt, spec.NewHistory(cfg.HistBits), cfg)
		}(i)
	}
	wg.Wait()
	tgt, err := NewPathTarget(tr.AM, tr.Profile, hot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Evaluate(tr, tgt, spec.NewHistory(cfg.HistBits), cfg)
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Fatalf("worker %d: %+v, serial %+v", i, got[i], want)
		}
	}
}

func TestEvaluateHyperblockBaseline(t *testing.T) {
	tr := capture(t, "186.crafty", 1500)
	cfg := DefaultConfig()
	hb, err := EvaluateHyperblock(tr, cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Non-speculative predication cannot fail.
	if hb.Successes != hb.Invocations {
		t.Fatalf("hyperblock failed %d times; predication cannot fail", hb.Invocations-hb.Successes)
	}
	// On dispatch-heavy code the predicated baseline burns energy executing
	// everything; Needle's selected braid must beat it on cycles.
	braid, _, err := EvaluateHottestBraid(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Improvement > braid.Improvement && braid.Improvement > 0 {
		t.Fatalf("hyperblock (%.2f) should not beat the braid (%.2f) on crafty",
			hb.Improvement, braid.Improvement)
	}
}

func TestSelectBraidRejectsEnergyLosers(t *testing.T) {
	// Selection must never return a candidate that increases energy, even
	// when it would win cycles.
	for _, name := range []string{"186.crafty", "458.sjeng", "401.bzip2"} {
		tr := capture(t, name, 1500)
		cand, err := SelectBraid(tr, DefaultConfig(), 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cand.Result.OffloadEnergyPJ > cand.Result.BaselineEnergyPJ+1e-6 {
			t.Fatalf("%s: selected braid loses energy", name)
		}
		if cand.Result.OffloadCycles > cand.Result.BaselineCycles {
			t.Fatalf("%s: selected braid loses cycles", name)
		}
	}
}

func TestSelectPathTriesLowerRanks(t *testing.T) {
	tr := capture(t, "453.povray", 2000)
	cfg := DefaultConfig()
	// topK=1 must never beat topK=3 (the search is monotone in candidates).
	h1, o1, err := SelectPath(tr, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	h3, o3, err := SelectPath(tr, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h3.OffloadCycles > h1.OffloadCycles || o3.OffloadCycles > o1.OffloadCycles {
		t.Fatal("widening the candidate search made the result worse")
	}
}
