// Package sim is the whole-system simulator of Section VI: it runs a
// workload once on the modeled host to capture a cycle- and history-
// annotated path trace, then evaluates offload targets (BL-Path or Braid
// frames on the CGRA) against that trace under different invocation
// predictors. The evaluation follows the paper's conservative model: guard
// failures are detected only at the end of an invocation, the undo log is
// rolled back, and the host re-executes the failed region.
package sim

import (
	"fmt"

	"needle/internal/cgra"
	"needle/internal/energy"
	"needle/internal/frame"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/mem"
	"needle/internal/obs"
	"needle/internal/ooo"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/spec"
)

// Observability counters (no-ops until obs.Enable): baseline captures and
// the modeled L1 behaviour they observed.
var (
	obsCaptures   = obs.GetCounter("sim.captures")
	obsL1Hits     = obs.GetCounter("sim.cache.l1.hits")
	obsL1Misses   = obs.GetCounter("sim.cache.l1.misses")
	obsHostCycles = obs.GetCounter("sim.host.cycles")
)

// Config gathers the hardware parameters.
type Config struct {
	OOO      ooo.Config
	Mem      mem.Config
	CGRA     cgra.Config
	CPU      energy.CPU
	Frame    frame.Options
	HistBits uint
	MaxSteps int64
}

// DefaultConfig returns the Table V system.
func DefaultConfig() Config {
	return Config{
		OOO:      ooo.DefaultConfig(),
		Mem:      mem.Config{},
		CGRA:     cgra.DefaultConfig(),
		CPU:      energy.DefaultCPU(),
		HistBits: 12,
	}
}

// Occurrence is one executed Ball-Larus path instance with its host cost
// and the branch history observed before it began.
type Occurrence struct {
	Path   int64
	Hist   uint64
	Cycles int64
}

// Trace is the captured baseline execution.
type Trace struct {
	Profile *profile.FunctionProfile
	Occ     []Occurrence

	// AM is the analysis manager the capture used; target construction and
	// evaluation against this trace reuse it, so dominators/liveness for the
	// traced function are computed once per trace.
	AM *pm.Manager

	BaselineCycles   int64
	BaselineEnergyPJ float64
	Mix              ooo.OpMix
	CacheStats       mem.Stats
}

// Capture runs the workload function once on the modeled host, collecting
// the path profile, per-occurrence cycle attribution, branch history
// snapshots, and the host energy baseline. Analyses are served by am (nil
// for a one-shot manager); the trace keeps the manager for downstream
// target evaluation.
func Capture(am *pm.Manager, f *ir.Function, args []uint64, memory []uint64, cfg Config) (*Trace, error) {
	am = pm.Ensure(am)
	sp := am.Span().Child("capture")
	defer sp.End()
	obsCaptures.Add(1)
	csp := sp.Child("capture: collector")
	collector, err := profile.NewCollector(am, f, true)
	csp.End()
	if err != nil {
		return nil, err
	}
	cache := mem.New(cfg.Mem)
	model := ooo.New(cfg.OOO, f.NumRegs(), cache)
	hist := &spec.HistoryTracker{}

	tr := &Trace{AM: am}
	var lastCycles int64
	var histBefore uint64
	// The collector fires OnPath at every path completion; snapshot
	// the host cycle counter and history register around each occurrence.
	// Only the primitive snapshots accumulate during the run — the
	// Occurrence structs are assembled afterwards in one exact allocation
	// from the collector's path-completion count (the recorded path trace).
	occCycles := make([]int64, 0, 1024)
	occHists := make([]uint64, 0, 1024)
	collector.SetOnPath(func(id int64) {
		now := model.Cycles()
		occCycles = append(occCycles, now-lastCycles)
		occHists = append(occHists, histBefore)
		lastCycles = now
		histBefore = hist.H
	})

	// The plan feeds the timing model one FeedBlock per executed block over
	// its precompiled timing packets, and the history register by direct
	// updates inside the loop; the capture differential tests pin the
	// result against the hook-driven reference interpreter.
	xsp := sp.Child("capture: execute")
	if _, err := collector.RunTimed(args, memory, model, &hist.H, cfg.MaxSteps); err != nil {
		xsp.End()
		return nil, err
	}
	xsp.End()
	fsp := sp.Child("capture: finish")
	fp, err := collector.Finish()
	fsp.End()
	if err != nil {
		return nil, err
	}
	// One exact allocation: the recorded path trace enumerates completed
	// occurrences in order, so its length is the occurrence count.
	if len(fp.Trace) != len(occCycles) {
		return nil, fmt.Errorf("sim: capture recorded %d occurrences but traced %d paths", len(occCycles), len(fp.Trace))
	}
	tr.Occ = make([]Occurrence, len(fp.Trace))
	for i, id := range fp.Trace {
		tr.Occ[i] = Occurrence{Path: id, Hist: occHists[i], Cycles: occCycles[i]}
	}
	tr.Profile = fp
	tr.BaselineCycles = model.Cycles()
	tr.Mix = model.Mix
	tr.CacheStats = cache.Stats
	tr.BaselineEnergyPJ = energy.HostEnergyPJ(cfg.CPU, model.Mix, cache.Stats)
	obsL1Hits.Add(cache.Stats.L1Hits)
	obsL1Misses.Add(cache.Stats.L1Misses)
	obsHostCycles.Add(tr.BaselineCycles)
	return tr, nil
}

// Target is an offload candidate: a framed region scheduled on the CGRA,
// plus the acceptance test deciding whether an executed path completes on
// the accelerator.
type Target struct {
	Region *region.Region
	Frame  *frame.Frame
	Sched  *cgra.Sched

	accepts map[int64]bool  // path id -> completes on accelerator
	isOpp   map[int64]bool  // path id -> starts at the region entry
	ops     map[int64]int64 // path id -> dynamic op count, prebuilt so the
	// non-dense Evaluate fallback pays one map load per occurrence instead of
	// a PathByID walk over the profile's path list.
	// Dense mirrors of accepts/isOpp/path-ops indexed by path ID, built when
	// the function's path space is small enough; Evaluate replays traces with
	// one occurrence per path completion, so these replace three map lookups
	// per occurrence. Nil when the ID space is too large.
	acceptsD []bool
	isOppD   []bool
	opsD     []int64
	// fullExec marks non-speculative predicated targets: every frame op
	// executes (and pays energy) on every invocation, with no gating.
	fullExec bool
}

// NewPathTarget builds the offload target for a single BL-Path region.
func NewPathTarget(am *pm.Manager, fp *profile.FunctionProfile, p *profile.Path, cfg Config) (*Target, error) {
	r := region.FromPath(fp.F, p)
	return newTarget(am, fp, r, map[int64]bool{p.ID: true}, cfg)
}

// NewBraidTarget builds the offload target for a braid. Any executed path
// that starts at the braid entry, ends at the braid exit, and stays within
// the braid's blocks completes on the accelerator — including block
// combinations never seen during profiling, the coverage bonus of
// Section IV-B.
func NewBraidTarget(am *pm.Manager, fp *profile.FunctionProfile, br *region.Braid, cfg Config) (*Target, error) {
	accepts := make(map[int64]bool)
	for _, p := range fp.Paths {
		accepts[p.ID] = braidAccepts(br, p)
	}
	return newTarget(am, fp, &br.Region, accepts, cfg)
}

func braidAccepts(br *region.Braid, p *profile.Path) bool {
	if len(p.Blocks) == 0 {
		return false
	}
	if p.Blocks[0] != br.Entry || p.Blocks[len(p.Blocks)-1] != br.Exit {
		return false
	}
	for _, b := range p.Blocks {
		if !br.Set[b] {
			return false
		}
	}
	return true
}

func newTarget(am *pm.Manager, fp *profile.FunctionProfile, r *region.Region, accepts map[int64]bool, cfg Config) (*Target, error) {
	fr, err := frame.Build(am, r, cfg.Frame)
	if err != nil {
		return nil, err
	}
	t := &Target{
		Region:  r,
		Frame:   fr,
		Sched:   cgra.Schedule(fr, cfg.CGRA),
		accepts: accepts,
		isOpp:   make(map[int64]bool),
		ops:     make(map[int64]int64, len(fp.Paths)),
	}
	for _, p := range fp.Paths {
		t.isOpp[p.ID] = len(p.Blocks) > 0 && p.Blocks[0] == r.Entry
		t.ops[p.ID] = p.Ops
	}
	t.buildDense(fp)
	return t, nil
}

// buildDense mirrors the accepts/isOpp/path-ops maps into arrays indexed by
// path ID when the ID space is small enough; Evaluate replays one trace
// occurrence per path completion, so this turns three map lookups per
// occurrence into array loads.
func (t *Target) buildDense(fp *profile.FunctionProfile) {
	t.opsD = fp.DenseOps(interp.MaxDensePaths) // shared across targets
	if t.opsD == nil {
		return
	}
	n := fp.DAG.NumPaths()
	t.acceptsD = make([]bool, n)
	t.isOppD = make([]bool, n)
	for id, v := range t.accepts {
		t.acceptsD[id] = v
	}
	for id, v := range t.isOpp {
		t.isOppD[id] = v
	}
}

// Result is the outcome of evaluating one target under one predictor.
type Result struct {
	Predictor string

	BaselineCycles int64
	OffloadCycles  int64
	// Improvement is the fractional cycle reduction (Figure 9's metric;
	// negative values are degradations).
	Improvement float64

	Opportunities int64 // region entries seen
	Invocations   int64 // times the predictor offloaded
	Successes     int64 // invocations that committed
	// Precision is Successes/Invocations (the predictor precision shown on
	// Figure 9's upper axis).
	Precision float64

	BaselineEnergyPJ float64
	OffloadEnergyPJ  float64
	// EnergyReduction is the net fractional energy saving (Figure 10).
	EnergyReduction float64

	// Coverage is the fraction of baseline dynamic instructions the
	// accelerated occurrences account for.
	Coverage float64
}

// Evaluate replays the captured trace, offloading accepted occurrences of
// the target under the given predictor. Passing a *spec.Oracle predictor
// evaluates the oracle bound (invoke exactly when the invocation would
// succeed).
//
// Consecutive successful invocations pipeline on the resident fabric at the
// schedule's initiation interval; a failure, a declined invocation, or an
// occurrence of a different region drains the pipeline, and the next
// invocation pays the full frame latency again. Failures additionally pay
// the rollback walk and the host's re-execution of the region, per the
// paper's conservative Section VI-A model.
func Evaluate(tr *Trace, tgt *Target, pred spec.Predictor, cfg Config) Result {
	res := Result{
		Predictor:        pred.Name(),
		BaselineCycles:   tr.BaselineCycles,
		BaselineEnergyPJ: tr.BaselineEnergyPJ,
	}
	if tr.BaselineCycles == 0 {
		return res
	}
	perOpPJ := energy.PerOpPJ(cfg.CPU, tr.Mix, tr.CacheStats)

	oracle, isOracle := pred.(*spec.Oracle)
	// The replay loop calls the predictor twice per opportunity; the common
	// predictors are resolved to concrete types here so those calls inline
	// instead of dispatching through the interface per occurrence.
	histPred, _ := pred.(*spec.History)
	var cycles int64
	energyPJ := tr.BaselineEnergyPJ // adjusted incrementally
	var acceleratedWeight int64
	reconfigured := false
	inRun := false

	dense := tgt.isOppD != nil
	for _, occ := range tr.Occ {
		opp := false
		if dense {
			opp = tgt.isOppD[occ.Path]
		} else {
			opp = tgt.isOpp[occ.Path]
		}
		if !opp {
			cycles += occ.Cycles
			inRun = false
			continue
		}
		res.Opportunities++
		var success bool
		if dense {
			success = tgt.acceptsD[occ.Path]
		} else {
			success = tgt.accepts[occ.Path]
		}
		if isOracle {
			oracle.SetNext(success)
		}
		var invoke bool
		switch {
		case histPred != nil:
			invoke = histPred.Predict(occ.Hist)
		case isOracle:
			invoke = success
		default:
			invoke = pred.Predict(occ.Hist)
		}
		if invoke {
			res.Invocations++
			if !reconfigured {
				cycles += cfg.CGRA.ReconfigCycles
				reconfigured = true
			}
			occOps := int64(0)
			if dense {
				occOps = tgt.opsD[occ.Path]
			} else {
				occOps = tgt.ops[occ.Path]
			}
			if success {
				res.Successes++
				if inRun {
					cycles += tgt.Sched.II
				} else {
					cycles += tgt.Sched.InvokeCycles()
					energyPJ += tgt.Sched.TransferPJ
					inRun = true
				}
				// The host stops paying for these ops; the accelerator pays
				// its own, with predicated-off frame ops gated (speculative
				// frames) or fully powered (non-speculative hyperblocks).
				execOps := occOps
				if tgt.fullExec {
					execOps = int64(len(tgt.Frame.Ops))
				}
				energyPJ -= float64(occOps) * perOpPJ
				energyPJ += tgt.Sched.InvokeEnergyPJ(execOps)
				acceleratedWeight += occOps
			} else {
				// Wasted accelerator work, rollback, then host re-execution.
				cycles += tgt.Sched.FailCycles() + occ.Cycles
				energyPJ += tgt.Sched.FailEnergyPJ() + tgt.Sched.TransferPJ
				inRun = false
			}
		} else {
			cycles += occ.Cycles
			inRun = false
		}
		switch {
		case histPred != nil:
			histPred.Update(occ.Hist, success)
		case isOracle: // no-op update
		default:
			pred.Update(occ.Hist, success)
		}
	}

	res.OffloadCycles = cycles
	res.Improvement = float64(tr.BaselineCycles-cycles) / float64(tr.BaselineCycles)
	res.OffloadEnergyPJ = energyPJ
	res.EnergyReduction = energy.Reduction(tr.BaselineEnergyPJ, energyPJ)
	if res.Invocations > 0 {
		res.Precision = float64(res.Successes) / float64(res.Invocations)
	}
	if tr.Profile.TotalWeight > 0 {
		res.Coverage = float64(acceleratedWeight) / float64(tr.Profile.TotalWeight)
	}
	return res
}

// EvaluateHottestPath is a convenience wrapper: oracle and history results
// for the hottest BL-Path.
func EvaluateHottestPath(tr *Trace, cfg Config) (oracle, history Result, err error) {
	hot := tr.Profile.HottestPath()
	if hot == nil {
		return oracle, history, fmt.Errorf("sim: no executed paths")
	}
	tgt, err := NewPathTarget(tr.AM, tr.Profile, hot, cfg)
	if err != nil {
		return oracle, history, err
	}
	oracle = Evaluate(tr, tgt, &spec.Oracle{}, cfg)
	history = Evaluate(tr, tgt, spec.NewHistory(cfg.HistBits), cfg)
	return oracle, history, nil
}

// EvaluateHottestBraid evaluates the top-ranked braid under the invocation
// history table. Per Section V, prediction matters less for braids than for
// paths (fewer guards), and workloads whose braid never fails effectively
// degenerate to the always-invoke policy the paper reports for nine
// applications.
func EvaluateHottestBraid(tr *Trace, cfg Config) (Result, *region.Braid, error) {
	braids := region.BuildBraids(tr.Profile, 0)
	if len(braids) == 0 {
		return Result{}, nil, fmt.Errorf("sim: no braids")
	}
	br := braids[0]
	tgt, err := NewBraidTarget(tr.AM, tr.Profile, br, cfg)
	if err != nil {
		return Result{}, nil, err
	}
	return Evaluate(tr, tgt, spec.NewHistory(cfg.HistBits), cfg), br, nil
}

// EvaluateBraidAlways evaluates the top braid under always-invoke, the
// policy the paper's nine fully-predictable applications use; kept for the
// predictor ablation.
func EvaluateBraidAlways(tr *Trace, cfg Config) (Result, *region.Braid, error) {
	braids := region.BuildBraids(tr.Profile, 0)
	if len(braids) == 0 {
		return Result{}, nil, fmt.Errorf("sim: no braids")
	}
	br := braids[0]
	tgt, err := NewBraidTarget(tr.AM, tr.Profile, br, cfg)
	if err != nil {
		return Result{}, nil, err
	}
	return Evaluate(tr, tgt, spec.Always{}, cfg), br, nil
}

// Candidate pairs an offload decision with its evaluation.
type Candidate struct {
	Result Result
	Braid  *region.Braid // nil for the no-offload baseline
	Policy string        // "history", "always", or "none"
}

// SelectBraid reproduces Needle's filter-and-rank stage for braids: it
// evaluates the top-k braids under both invocation policies and returns the
// candidate with the fewest cycles, falling back to no offload when nothing
// profits (Section IV-B: "NEEDLE provides a methodical framework to reason
// about this tradeoff").
func SelectBraid(tr *Trace, cfg Config, topK int) (Candidate, error) {
	braids := region.BuildBraids(tr.Profile, 0)
	if len(braids) == 0 {
		return Candidate{}, fmt.Errorf("sim: no braids")
	}
	if topK <= 0 {
		topK = 3
	}
	best := Candidate{
		Result: Result{
			Predictor:        "none",
			BaselineCycles:   tr.BaselineCycles,
			OffloadCycles:    tr.BaselineCycles,
			BaselineEnergyPJ: tr.BaselineEnergyPJ,
			OffloadEnergyPJ:  tr.BaselineEnergyPJ,
		},
		Policy: "none",
	}
	for i := 0; i < topK && i < len(braids); i++ {
		br := braids[i]
		tgt, err := NewBraidTarget(tr.AM, tr.Profile, br, cfg)
		if err != nil {
			continue // e.g. unframeable region; skip candidate
		}
		for _, pred := range []spec.Predictor{spec.NewHistory(cfg.HistBits), spec.Always{}} {
			res := Evaluate(tr, tgt, pred, cfg)
			// A candidate must not trade energy for speed: offload exists to
			// save energy (Section I), so the filter requires both axes to
			// be no worse than the host baseline.
			if res.OffloadEnergyPJ > res.BaselineEnergyPJ {
				continue
			}
			if res.OffloadCycles < best.Result.OffloadCycles {
				best = Candidate{Result: res, Braid: br, Policy: pred.Name()}
			}
		}
	}
	return best, nil
}

// SelectPath is the path-side filter: it evaluates the top-k paths under the
// history predictor (plus the oracle bound for reporting) and returns the
// best history-policy candidate, falling back to no offload.
func SelectPath(tr *Trace, cfg Config, topK int) (history, oracle Result, err error) {
	if len(tr.Profile.Paths) == 0 {
		return history, oracle, fmt.Errorf("sim: no executed paths")
	}
	if topK <= 0 {
		topK = 3
	}
	hot := tr.Profile.HottestPath()
	tgt, err := NewPathTarget(tr.AM, tr.Profile, hot, cfg)
	if err != nil {
		return history, oracle, err
	}
	oracle = Evaluate(tr, tgt, &spec.Oracle{}, cfg)
	history = Evaluate(tr, tgt, spec.NewHistory(cfg.HistBits), cfg)
	for i := 1; i < topK && i < len(tr.Profile.Paths); i++ {
		t2, err := NewPathTarget(tr.AM, tr.Profile, tr.Profile.Paths[i], cfg)
		if err != nil {
			continue
		}
		if r := Evaluate(tr, t2, spec.NewHistory(cfg.HistBits), cfg); r.OffloadCycles < history.OffloadCycles {
			history = r
		}
		if r := Evaluate(tr, t2, &spec.Oracle{}, cfg); r.OffloadCycles < oracle.OffloadCycles {
			oracle = r
		}
	}
	return history, oracle, nil
}

// NewHyperblockTarget builds the non-speculative predicated baseline of
// Figure 2's middle column: the hyperblock executes all its (predicated)
// operations on every invocation, cannot fail or roll back, and is invoked
// only for flows it fully contains — everything else stays on the host.
func NewHyperblockTarget(am *pm.Manager, fp *profile.FunctionProfile, hb *region.Hyperblock, cfg Config) (*Target, error) {
	accepts := make(map[int64]bool)
	for _, p := range fp.Paths {
		ok := len(p.Blocks) > 0 && p.Blocks[0] == hb.Entry
		for _, b := range p.Blocks {
			if !hb.Set[b] {
				ok = false
				break
			}
		}
		accepts[p.ID] = ok
	}
	fr, err := frame.Build(am, &hb.Region, cfg.Frame)
	if err != nil {
		return nil, err
	}
	t := &Target{
		Region:  &hb.Region,
		Frame:   fr,
		Sched:   cgra.Schedule(fr, cfg.CGRA),
		accepts: accepts,
		// Only covered flows are offload opportunities: uncovered paths run
		// on the host with no penalty (non-speculative regions exit cleanly).
		isOpp:    accepts,
		ops:      make(map[int64]int64, len(fp.Paths)),
		fullExec: true,
	}
	for _, p := range fp.Paths {
		t.ops[p.ID] = p.Ops
	}
	t.buildDense(fp)
	return t, nil
}

// EvaluateHyperblock evaluates the non-speculative hyperblock baseline
// seeded at the hottest path's entry, under always-invoke (it cannot fail).
func EvaluateHyperblock(tr *Trace, cfg Config, coldFraction float64) (Result, error) {
	hot := tr.Profile.HottestPath()
	if hot == nil {
		return Result{}, fmt.Errorf("sim: no executed paths")
	}
	hb := region.BuildTunedHyperblock(tr.AM, tr.Profile, hot.Blocks[0], coldFraction, 0.05)
	tgt, err := NewHyperblockTarget(tr.AM, tr.Profile, hb, cfg)
	if err != nil {
		return Result{}, err
	}
	return Evaluate(tr, tgt, spec.Always{}, cfg), nil
}
