// Command perfbench is the repository benchmark. It drives the Needle
// pipeline through the public APIs of core, pipeline and serve on one of
// three workloads, checks every output against digests recorded from the
// needle CLI (expected.json), and prints its metrics by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 50, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, timed around calls into each layer's public
// functions from this package (nothing is added inside the program).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
//
// --seconds fixes the amount of work a run does (calibrated so a run
// measures about that long on a 2-core host); it is never a deadline, so
// two versions of the program are always compared on equal work. README.md
// describes the workloads, the metrics and the layer each one attributes.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"needle/internal/core"
	"needle/internal/pipeline"
)

//go:embed expected.json
var expectedJSON []byte

// expected holds the recorded reference outputs (see record.go).
type expected struct {
	// Sweep is the digest of `needle -j 1 -json` at full size, with the
	// exact capture counts of one sweep.
	Sweep struct {
		Digest string `json:"digest"`
		Instrs int64  `json:"instrs"`
		Occ    int64  `json:"occ"`
	} `json:"sweep"`
	// Ablate maps an ablation config key to the digest of that config's
	// cold (storeless) sweep.
	Ablate map[string]string `json:"ablate"`
	// Serve maps a request key to the digest of the matching
	// `needle -json`, `needle -nir -json` or `needle -vet -json` output.
	Serve map[string]string `json:"serve"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// Metric names and units. endToEnd and perLayer mirror BENCHMARK.json; the
// benchmark's tests hold the two in step.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"op_p50_ms", "ms"},
		{"op_per_s", "1/s"},
		{"peak_rss_mb", "MB"},
		{"live_heap_mb", "MB"},
	}
	perLayer = []metricDef{
		{"capture.ms", "ms"},
		{"capture.instrs", "count"},
		{"capture.occ", "count"},
		{"capture.ns_per_instr", "ns"},
		{"interp.ns_per_instr", "ns"},
		{"ooo.ns_per_instr", "ns"},
		{"inline.ms", "ms"},
		{"select.ms", "ms"},
		{"frame.ms", "ms"},
		{"summary.ms", "ms"},
		{"target.sim.ms", "ms"},
		{"target.sim.ns_per_occ", "ns"},
		{"target.cgra.ms", "ms"},
		{"target.hls.ms", "ms"},
		{"target.energy.ms", "ms"},
		{"gc.alloc_mb", "MB"},
		{"gc.cycles", "count"},
		{"store.inline.hit_ms", "ms"},
		{"store.profile.hit_ms", "ms"},
		{"store.select.hit_ms", "ms"},
		{"store.frame.hit_ms", "ms"},
		{"store.disk_hits", "count"},
		{"store.hit_ratio", "ratio"},
		{"store.disk_mb", "MB"},
		{"store.mem_hit_ratio", "ratio"},
		{"serve.handler_ms_p50", "ms"},
		{"serve.transport_ms_p50", "ms"},
		{"serve.collapsed", "count"},
		{"program.load_us", "us"},
		{"vet.ms", "ms"},
		{"metrics.scrape_ms", "ms"},
		{"obs.spans", "count"},
		{"trace.overhead_ms", "ms"},
	}
)

type metricDef struct{ name, unit string }

// setupProbes is how many extra processes repeat set-up once each; with the
// run's own set-up, setup_s is the median of three.
const setupProbes = 2

// bench is one benchmark run: its options, its correctness tally and the
// metrics it measured.
type bench struct {
	seed    int64
	seconds int
	ops     int // overrides the work derived from seconds when > 0 (tests)
	trace   bool
	root    string
	probes  int
	exp     *expected
	log     io.Writer
	hs      hostSpeed

	attempted, failed int
	metrics           map[string]float64
	// rows are the traced run's per-program lines, printed before the
	// result.
	rows []string
}

// check counts one checked operation, and a failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(b.log, "FAIL "+format+"\n", args...)
	}
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// workload is one of the benchmark's workloads. setup is what a user pays
// once per process and is timed as setup_s; run does the run's fixed work
// and records its metrics; close releases what setup acquired.
type workload interface {
	setup(b *bench) error
	run(b *bench) error
	close()
}

var benchWorkloads = map[string]func() workload{
	"sweep-cold":  func() workload { return &sweepCold{} },
	"ablate-warm": func() workload { return &ablateWarm{} },
	"serve-mixed": func() workload { return &serveMixed{} },
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "sweep-cold, ablate-warm or serve-mixed")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 25, "amount of work per run, calibrated to about this many seconds on a 2-core host")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		root    = flag.String("root", ".", "repository checkout the benchmark runs in")
		probe   = flag.Bool("setup-probe", false, "run set-up once, print its duration in seconds and exit")
		record  = flag.Bool("record", false, "regenerate expected.json from the needle CLI and exit")
	)
	flag.Parse()
	if *record {
		if err := recordExpected(*root); err != nil {
			fatal("record: %v", err)
		}
		return
	}
	exp, err := loadExpected()
	if err != nil {
		fatal("%v", err)
	}
	b := &bench{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: *root, probes: setupProbes, exp: exp, log: os.Stdout,
	}
	if *probe {
		s, err := b.setupOnce(*name)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(s)
		return
	}
	res, err := b.execute(*name)
	if err != nil {
		fatal("%v", err)
	}
	b.printHuman(*name, res)
	out, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(out))
}

// setupOnce runs one workload's set-up in this process and returns its
// duration; a set-up whose outputs fail their check is an error.
func (b *bench) setupOnce(name string) (float64, error) {
	mk, ok := benchWorkloads[name]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", name)
	}
	b.metrics = map[string]float64{}
	w := mk()
	defer w.close()
	s, err := b.timeSetup(w)
	if err != nil {
		return 0, err
	}
	if b.failed > 0 {
		return 0, fmt.Errorf("%s: set-up output failed its check", name)
	}
	return s, nil
}

// timeSetup runs w's set-up and returns its duration in seconds at the
// quiet host's speed (see hostSpeed), without the reference kernel's own
// time.
func (b *bench) timeSetup(w workload) (float64, error) {
	first, spent := len(b.hs.samples), b.hs.spent
	t := startTimer()
	if err := w.setup(b); err != nil {
		return 0, err
	}
	raw := t.seconds() - (b.hs.spent - spent).Seconds()
	// Set-up without sweeps (serve-mixed) probes only here.
	for i := 0; i < 10; i++ {
		b.hs.probe()
	}
	return raw * b.hs.factor(first), nil
}

// analyzer is a serial analyzer over store (nil: none) that probes the
// host's speed between programs.
func (b *bench) analyzer(store pipeline.Store) *core.Analyzer {
	return core.New(core.WithJobs(1), core.WithStore(store), core.WithProgress(b.hs.progress))
}

// execute runs the named workload end to end and assembles the result:
// setup probes, the in-process set-up, then the timed work.
func (b *bench) execute(name string) (*result, error) {
	mk, ok := benchWorkloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	b.metrics = map[string]float64{}
	var setups []float64
	if !b.trace {
		// Set-up is what a user pays once per process, so it is repeated in
		// fresh processes; the median goes to setup_s.
		for i := 0; i < b.probes; i++ {
			s, err := probeSetup(b.root, name, b.seed)
			if err != nil {
				return nil, fmt.Errorf("setup probe %d: %w", i+1, err)
			}
			setups = append(setups, s)
		}
	}
	w := mk()
	defer w.close()
	s, err := b.timeSetup(w)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	setups = append(setups, s)
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	} else {
		b.set("setup_s", median(setups))
		b.set("peak_rss_mb", peakRSSMB())
	}
	res := &result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// printHuman prints the per-program rows and every metric by name and unit,
// with the failure fraction, ahead of the JSON result line.
func (b *bench) printHuman(name string, res *result) {
	for _, r := range b.rows {
		fmt.Println(r)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-12s %-24s %14.4f %s\n", name, n, m.Value, m.Unit)
	}
	fmt.Printf("%-12s %-24s %14.4f %s (%d of %d operations)\n", name, "fail_frac",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
}

func workloadNames() []string {
	var ns []string
	for n := range benchWorkloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
