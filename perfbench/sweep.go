package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"needle/internal/core"
	"needle/internal/frame"
	"needle/internal/obs"
	"needle/internal/pipeline"
	"needle/internal/profile"
)

// Sweeps per --seconds, calibrated on a 2-core host: a cold serial sweep
// takes about 1.16 s after the first, a disk-warm one about 0.38 s.
const (
	coldSweepsPerSecond = 0.86
	warmSweepsPerSecond = 2.6
)

// sweep runs one full 29-workload sweep and renders it as `needle -json`
// prints it, returning the analyses, the output bytes and the time spent
// rendering.
func sweep(ctx context.Context, az *core.Analyzer, cfg core.Config) ([]*core.Analysis, []byte, time.Duration, error) {
	as, err := az.RunAll(ctx, cfg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("sweep: %w", err)
	}
	t0 := time.Now()
	out, err := core.MarshalSummaries(as)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("sweep: %w", err)
	}
	return as, append(out, '\n'), time.Since(t0), nil
}

// checkSweep counts one sweep as an operation: its output must match the
// recorded digest and its traces the recorded capture counts.
func (b *bench) checkSweep(what string, as []*core.Analysis, out []byte, want string) {
	var instrs, occ int64
	for _, a := range as {
		instrs += a.Trace.Mix.Total
		occ += int64(len(a.Trace.Occ))
	}
	ok := digest(out) == want && instrs == b.exp.Sweep.Instrs && occ == b.exp.Sweep.Occ
	b.check(ok, "%s: digest %.12s (want %.12s), instrs %d (want %d), occ %d (want %d)",
		what, digest(out), want, instrs, b.exp.Sweep.Instrs, occ, b.exp.Sweep.Occ)
}

// sweepOp is one timed sweep: its config, the digest its output must match,
// and the store it runs over (nil store func: no store).
type sweepOp struct {
	label string
	cfg   core.Config
	want  string
	store func() (pipeline.Store, error)
}

// sweepSample is one traced sweep's per-layer figures.
type sweepSample struct {
	sums            stageSums
	summary, interp time.Duration
	target          map[string]time.Duration
	occ             int64
	allocMB, cycles float64
	diskHits        int64
	memHitRatio     float64
}

// programRow collects one program's traced timings across sweeps.
type programRow struct {
	capture, target []float64
	instrs          int64
}

// runSweeps times each op serially and records the end-to-end metrics, or,
// in a traced run, alternates untraced and traced ops (consecutive pairs
// share a config) and records the per-layer metrics.
func runSweeps(b *bench, name string, ops []sweepOp) error {
	ctx := context.Background()
	reg := &obs.Registry{}
	reg.Enable()
	var (
		durs, tracedDurs []float64
		samples          []sweepSample
		rows             = map[string]*programRow{}
		order            []string
	)
	first, spentStart := len(b.hs.samples), b.hs.spent
	wall := startTimer()
	for i, op := range ops {
		traced := b.trace && i%2 == 1
		var store pipeline.Store
		if op.store != nil {
			s, err := op.store()
			if err != nil {
				return err
			}
			store = s
		}
		var st *stageTimer
		if traced {
			st = newStageTimer(store, reg)
			store = st
		}
		sp := reg.Start("sweep").SetArg("op", i).SetArg("traced", traced)
		gc0 := readGC()
		spent := b.hs.spent
		t := startTimer()
		// A nil store runs without one, as `needle` does without -cache-dir.
		as, out, summary, err := sweep(ctx, b.analyzer(store), op.cfg)
		d := t.seconds() - (b.hs.spent - spent).Seconds()
		gc1 := readGC()
		sp.End()
		if err != nil {
			return err
		}
		b.checkSweep(fmt.Sprintf("%s op %d (%s)", name, i, op.label), as, out, op.want)
		if !traced {
			durs = append(durs, d)
			continue
		}
		tracedDurs = append(tracedDurs, d)
		smp := sweepSample{sums: sumRecords(st.drain()), summary: summary, target: map[string]time.Duration{}}
		smp.allocMB, smp.cycles = gc1.since(gc0)
		stats := st.Stats()
		for _, cs := range stats {
			smp.diskHits += cs.DiskHits
		}
		smp.memHitRatio = ratio(memLookups(nil, stats))
		if err := traceSweep(reg, as, &smp, rows, &order); err != nil {
			return err
		}
		samples = append(samples, smp)
	}
	elapsed := wall.seconds() - (b.hs.spent - spentStart).Seconds()
	if !b.trace {
		f := b.hs.factor(first)
		b.set("op_p50_ms", median(durs)*1000*f)
		b.set("op_per_s", float64(len(durs))/elapsed/f)
		b.set("live_heap_mb", liveHeapMB())
		b.rows = append(b.rows,
			fmt.Sprintf("%-12s %-24s %14.4f s (median of %d sweeps)", name, "sweep_s", median(durs)*f, len(durs)),
			hostRow(name, f, median(durs)*1000))
		return nil
	}
	reportSweepLayers(b, samples)
	b.set("trace.overhead_ms", (median(tracedDurs)-median(durs))*1000)
	b.rows = append(b.rows, fmt.Sprintf("%-24s %12s %12s %12s", "program", "capture_ms", "instrs", "target_ms"))
	for _, p := range order {
		r := rows[p]
		b.rows = append(b.rows, fmt.Sprintf("%-24s %12.3f %12d %12.3f", p, median(r.capture), r.instrs, median(r.target)))
	}
	path, err := writeTrace(b.root, name, b.seed, reg)
	if err != nil {
		return err
	}
	b.rows = append(b.rows, "chrome trace: "+path)
	return nil
}

// traceSweep times the public functions behind a traced sweep's layers:
// every target backend's Evaluate on each analysis, and, for each program
// whose profile was captured in this sweep, profile.Collector.Run alone (the
// interpreter and path profiler without the timing model).
func traceSweep(reg *obs.Registry, as []*core.Analysis, smp *sweepSample, rows map[string]*programRow, order *[]string) error {
	for _, a := range as {
		name := a.Program.Name
		row := rows[name]
		if row == nil {
			row = &programRow{}
			rows[name] = row
			*order = append(*order, name)
		}
		var tgt time.Duration
		for _, be := range pipeline.Backends() {
			sp := reg.Start("target: "+be.Name()).SetArg("program", name)
			t0 := time.Now()
			_, err := be.Evaluate(a.Artifacts)
			d := time.Since(t0)
			sp.End()
			if err != nil {
				return fmt.Errorf("target %s on %s: %w", be.Name(), name, err)
			}
			smp.target[be.Name()] += d
			tgt += d
		}
		row.target = append(row.target, ms(tgt))
		smp.occ += int64(len(a.Trace.Occ))
		row.instrs = a.Trace.Mix.Total
		c, ok := smp.sums.captured[name]
		if !ok {
			row.capture = append(row.capture, 0)
			continue
		}
		row.capture = append(row.capture, ms(c.compute))
		am, f := a.Artifacts.HotFunc()
		col, err := profile.NewCollector(am, f, true)
		if err != nil {
			return fmt.Errorf("collector for %s: %w", name, err)
		}
		args := append([]uint64(nil), a.Artifacts.Inline.Args...)
		mem := append([]uint64(nil), a.Artifacts.Inline.Memory...)
		sp := reg.Start("interp").SetArg("program", name)
		t0 := time.Now()
		_, err = col.Run(args, mem, a.Config.Sim.MaxSteps)
		smp.interp += time.Since(t0)
		sp.End()
		if err != nil {
			return fmt.Errorf("interpreting %s: %w", name, err)
		}
	}
	return nil
}

// reportSweepLayers sets the per-layer metrics of a sweep workload: each is
// the median over the traced sweeps of that sweep's total.
func reportSweepLayers(b *bench, samples []sweepSample) {
	med := func(f func(sweepSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	stageMs := func(stage string) float64 {
		return med(func(s sweepSample) float64 { return ms(s.sums.compute[stage]) })
	}
	capture := stageMs("profile")
	instrs := med(func(s sweepSample) float64 { return float64(s.sums.instrs) })
	interp := med(func(s sweepSample) float64 { return ms(s.interp) })
	b.set("capture.ms", capture)
	b.set("capture.instrs", instrs)
	b.set("capture.occ", med(func(s sweepSample) float64 { return float64(s.sums.occ) }))
	b.set("capture.ns_per_instr", nsPer(capture, instrs))
	b.set("interp.ns_per_instr", nsPer(interp, instrs))
	b.set("ooo.ns_per_instr", nsPer(capture-interp, instrs))
	for _, stage := range []string{"inline", "select", "frame"} {
		b.set(stage+".ms", stageMs(stage))
		b.set("store."+stage+".hit_ms", med(func(s sweepSample) float64 { return ms(s.sums.hit[stage]) }))
	}
	b.set("store.profile.hit_ms", med(func(s sweepSample) float64 { return ms(s.sums.hit["profile"]) }))
	b.set("summary.ms", med(func(s sweepSample) float64 { return ms(s.summary) }))
	for _, be := range []string{"sim", "cgra", "hls", "energy"} {
		b.set("target."+be+".ms", med(func(s sweepSample) float64 { return ms(s.target[be]) }))
	}
	b.set("target.sim.ns_per_occ", nsPer(b.metrics["target.sim.ms"], med(func(s sweepSample) float64 { return float64(s.occ) })))
	b.set("gc.alloc_mb", med(func(s sweepSample) float64 { return s.allocMB }))
	b.set("gc.cycles", med(func(s sweepSample) float64 { return s.cycles }))
	b.set("store.disk_hits", med(func(s sweepSample) float64 { return float64(s.diskHits) }))
	b.set("store.hit_ratio", med(func(s sweepSample) float64 { return s.sums.hitRatio() }))
	b.set("store.mem_hit_ratio", med(func(s sweepSample) float64 { return s.memHitRatio }))
	zeroLayers(b)
}

// nsPer converts a total in milliseconds to nanoseconds per unit of work
// (0 when no work was done).
func nsPer(totalMs, n float64) float64 {
	if n == 0 {
		return 0
	}
	return totalMs * 1e6 / n
}

// sweepCold is `needle -j 1 -json` repeated: full-size serial sweeps with
// no artifact store, the paper-reproduction path.
type sweepCold struct{ cfg core.Config }

func (w *sweepCold) setup(b *bench) error {
	w.cfg = core.DefaultConfig()
	as, out, _, err := sweep(context.Background(), b.analyzer(nil), w.cfg)
	if err != nil {
		return err
	}
	b.checkSweep("sweep-cold set-up", as, out, b.exp.Sweep.Digest)
	return nil
}

func (w *sweepCold) run(b *bench) error {
	n := b.opsOr(int(math.Round(float64(b.seconds) * coldSweepsPerSecond)))
	ops := make([]sweepOp, max(n, 2))
	for i := range ops {
		ops[i] = sweepOp{label: "default", cfg: w.cfg, want: b.exp.Sweep.Digest}
	}
	return runSweeps(b, "sweep-cold", ops)
}

func (w *sweepCold) close() {}

// ablateConfig is one downstream-only knob setting of ablate-warm.
type ablateConfig struct {
	key string
	cfg core.Config
}

var frameVariants = []struct {
	name string
	opts frame.Options
}{
	{"async", frame.Options{}},
	{"serialize", frame.Options{Placement: frame.GuardsSerialize, Ordering: frame.MemConservative}},
}

func ablateAt(hist uint, topK int, cold float64, frameVariant int) ablateConfig {
	cfg := core.DefaultConfig()
	cfg.Sim.HistBits = hist
	cfg.SelectTopK = topK
	cfg.ColdFraction = cold
	cfg.Sim.Frame = frameVariants[frameVariant].opts
	return ablateConfig{
		key: fmt.Sprintf("hist=%d,topk=%d,cold=%g,frame=%s", hist, topK, cold, frameVariants[frameVariant].name),
		cfg: cfg,
	}
}

// ablateFill is what set-up writes to the store: the default knobs under
// each frame variant, so every later op finds inline, profile, select and
// frame on disk.
func ablateFill() []ablateConfig {
	d := core.DefaultConfig()
	var out []ablateConfig
	for v := range frameVariants {
		out = append(out, ablateAt(d.Sim.HistBits, d.SelectTopK, d.ColdFraction, v))
	}
	return out
}

// ablateUniverse is every knob setting a timed op may take: history bits
// and top-K crossed with two (cold fraction, frame options) pairs. None
// equals a fill config, so each op's target stage evaluates a setting new
// to the store.
func ablateUniverse() []ablateConfig {
	var out []ablateConfig
	for _, hist := range []uint{8, 10, 14, 16} {
		for _, topK := range []int{1, 3, 5} {
			out = append(out, ablateAt(hist, topK, 0.05, 0), ablateAt(hist, topK, 0.2, 1))
		}
	}
	return out
}

// ablateWarm sweeps through a fresh DiskStore over a directory filled
// during set-up, with a new downstream-only knob setting per sweep.
type ablateWarm struct {
	dir string
}

func (w *ablateWarm) setup(b *bench) error {
	parent := filepath.Join(b.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return err
	}
	w.dir = dir
	ds, err := pipeline.NewDiskStore(dir, 0)
	if err != nil {
		return err
	}
	ctx := context.Background()
	fill := ablateFill()
	for _, c := range fill {
		as, out, _, err := sweep(ctx, b.analyzer(ds), c.cfg)
		if err != nil {
			return err
		}
		b.checkSweep("ablate-warm fill "+c.key, as, out, b.exp.Ablate[c.key])
	}
	// The first sweep a new process makes over the filled store.
	fresh, err := pipeline.NewDiskStore(dir, 0)
	if err != nil {
		return err
	}
	as, out, _, err := sweep(ctx, b.analyzer(fresh), fill[0].cfg)
	if err != nil {
		return err
	}
	b.checkSweep("ablate-warm first warm sweep", as, out, b.exp.Ablate[fill[0].key])
	return nil
}

func (w *ablateWarm) run(b *bench) error {
	universe := ablateUniverse()
	rounds := max(1, int(math.Round(float64(b.seconds)*warmSweepsPerSecond/float64(len(universe)))))
	n := b.opsOr(rounds * len(universe))
	// Every run covers the universe evenly; the seed sets the order.
	rng := rand.New(rand.NewSource(b.seed))
	var seq []ablateConfig
	for len(seq) < n {
		for _, i := range rng.Perm(len(universe)) {
			seq = append(seq, universe[i])
		}
	}
	ops := make([]sweepOp, max(n, 2))
	for i := range ops {
		c := seq[i]
		if b.trace {
			// Untraced and traced ops come in pairs over one config.
			c = seq[i/2]
		}
		ops[i] = sweepOp{
			label: c.key, cfg: c.cfg, want: b.exp.Ablate[c.key],
			store: func() (pipeline.Store, error) { return pipeline.NewDiskStore(w.dir, 0) },
		}
	}
	if b.trace {
		b.set("store.disk_mb", dirMB(w.dir))
	}
	return runSweeps(b, "ablate-warm", ops)
}

func (w *ablateWarm) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// dirMB is the total size of the files in dir, in MB.
func dirMB(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return float64(total) / (1 << 20)
}

// opsOr returns the --ops override when set, else n.
func (b *bench) opsOr(n int) int {
	if b.ops > 0 {
		return b.ops
	}
	return n
}
