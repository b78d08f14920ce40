package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"needle/internal/core"
	"needle/internal/obs"
	"needle/internal/pipeline"
	"needle/internal/program"
	"needle/internal/serve"
	"needle/internal/vet"
	"needle/internal/workloads"
)

//go:embed inputs/*.nir
var inputs embed.FS

const (
	// clients is the closed loop's connection count: one per core of the
	// 2-core host the benchmark is calibrated on.
	clients = 2
	// requestsPerSecond calibrates --seconds to a request count.
	requestsPerSecond = 330
	// block is the mix's unit: every run is a whole number of blocks, each
	// with exactly the counts below, in a seeded order.
	block        = 20
	blockAnalyze = 14 // built-in workload under a config variant
	blockNIR     = 3  // inline .nir source with a seeded argument tuple
	blockVet     = 2  // /v1/vet of a .nir source or a built-in workload
	blockMetrics = 1  // GET /metrics
	// probeEvery is how many requests run between two timings of the
	// reference kernel (see hostSpeed). The client that sent the request
	// times it before its next request, while the other keeps going.
	probeEvery = 5 * block
)

// request is one HTTP request of the serve-mixed universe. key names the
// recorded digest its response body must match ("" for /metrics).
type request struct {
	key, method, path string
	body              []byte
	// src and args are the inline program of a nir or vet request, kept to
	// time program.Load and vet.Check directly in the traced run.
	src  string
	args []string
	// wl and cfg are the built-in workload and config of an analyze or vet
	// request, kept so the recorder can reproduce the response in process.
	wl  string
	cfg *core.Config
}

// analyzeBody is the /v1/analyze and /v1/vet request schema.
type analyzeBody struct {
	Workload string       `json:"workload,omitempty"`
	Source   string       `json:"source,omitempty"`
	Args     []string     `json:"args,omitempty"`
	Config   *core.Config `json:"config,omitempty"`
}

// configVariant is one config a built-in /v1/analyze request carries.
// Every variant differs from the default only in target-stage knobs, so a
// warm store serves inline through frame and target runs fresh.
type configVariant struct {
	name string
	cfg  *core.Config // nil: the request carries no config (the default)
}

func configVariants() []configVariant {
	hist := core.DefaultConfig()
	hist.Sim.HistBits = 8
	wide := core.DefaultConfig()
	wide.SelectTopK = 5
	wide.ColdFraction = 0.2
	return []configVariant{{"default", nil}, {"hist8", &hist}, {"topk5-cold0.2", &wide}}
}

// nirTuples are the argument tuples each inline source is analyzed with.
func nirTuples() map[string][][]string {
	out := map[string][][]string{}
	for _, a := range []string{"f:2.0", "f:-0.5", "f:1.25"} {
		for _, y := range []string{"128", "1024"} {
			for _, n := range []string{"16", "64", "200", "500"} {
				out["saxpy"] = append(out["saxpy"], []string{a, "0", y, n})
			}
		}
	}
	for _, bins := range []string{"256", "2048"} {
		for _, n := range []string{"16", "64", "128", "256", "512", "1000"} {
			out["histogram"] = append(out["histogram"], []string{"0", bins, n})
		}
	}
	return out
}

// vetSources are the inline sources /v1/vet requests carry.
var vetSources = []string{"saxpy", "histogram", "deadstore", "oob"}

func inputSource(name string) (string, error) {
	b, err := inputs.ReadFile("inputs/" + name + ".nir")
	return string(b), err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only for the benchmark's own fixed request types
	}
	return b
}

// serveUniverse lists every request the mix draws from, by class.
type serveUniverse struct {
	analyze, nir, vet []request
	metrics           request
}

func newServeUniverse() (*serveUniverse, error) {
	u := &serveUniverse{metrics: request{method: http.MethodGet, path: "/metrics"}}
	for _, w := range workloads.All() {
		for _, v := range configVariants() {
			u.analyze = append(u.analyze, request{
				key: "analyze/" + w.Name + "/" + v.name, method: http.MethodPost, path: "/v1/analyze",
				body: mustJSON(analyzeBody{Workload: w.Name, Config: v.cfg}), wl: w.Name, cfg: v.cfg,
			})
		}
		u.vet = append(u.vet, request{
			key: "vet/" + w.Name, method: http.MethodPost, path: "/v1/vet",
			body: mustJSON(analyzeBody{Workload: w.Name}), wl: w.Name,
		})
	}
	tuples := nirTuples()
	for _, name := range []string{"saxpy", "histogram"} {
		src, err := inputSource(name)
		if err != nil {
			return nil, err
		}
		for _, args := range tuples[name] {
			u.nir = append(u.nir, request{
				key: "nir/" + name + "/" + strings.Join(args, ","), method: http.MethodPost, path: "/v1/analyze",
				body: mustJSON(analyzeBody{Source: src, Args: args}), src: src, args: args,
			})
		}
	}
	for _, name := range vetSources {
		src, err := inputSource(name)
		if err != nil {
			return nil, err
		}
		u.vet = append(u.vet, request{
			key: "vet/" + name, method: http.MethodPost, path: "/v1/vet",
			body: mustJSON(analyzeBody{Source: src}), src: src,
		})
	}
	return u, nil
}

// sequence draws n requests (a whole number of blocks) from the universe.
func (u *serveUniverse) sequence(rng *rand.Rand, n int) []request {
	var out []request
	for len(out) < n {
		blk := make([]request, 0, block)
		for i := 0; i < blockAnalyze; i++ {
			blk = append(blk, u.analyze[rng.Intn(len(u.analyze))])
		}
		for i := 0; i < blockNIR; i++ {
			blk = append(blk, u.nir[rng.Intn(len(u.nir))])
		}
		for i := 0; i < blockVet; i++ {
			blk = append(blk, u.vet[rng.Intn(len(u.vet))])
		}
		for i := 0; i < blockMetrics; i++ {
			blk = append(blk, u.metrics)
		}
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		out = append(out, blk...)
	}
	return out
}

// serveMixed is an in-process serve.Server set up as cmd/needled sets it
// up (obs enabled, default in-memory store, default jobs), driven over
// localhost HTTP by a closed loop of two clients.
type serveMixed struct {
	u       *serveUniverse
	rng     *rand.Rand
	reg     *obs.Registry
	st      *stageTimer   // traced runs only
	ht      *handlerTimer // traced runs only
	srv     *serve.Server
	hs      *http.Server
	done    chan struct{}
	base    string
	clients []*http.Client
}

// maxRequests bounds the handler timer's per-request slots.
const maxRequests = 1 << 16

func (w *serveMixed) setup(b *bench) error {
	u, err := newServeUniverse()
	if err != nil {
		return err
	}
	w.u = u
	w.rng = rand.New(rand.NewSource(b.seed))
	obs.Enable()
	cfg := serve.Config{}
	var handler http.Handler
	if b.trace {
		w.reg = &obs.Registry{}
		w.reg.Enable()
		w.st = newStageTimer(pipeline.NewCache(), w.reg)
		cfg.Store = w.st
	}
	w.srv = serve.New(cfg)
	handler = w.srv
	if b.trace {
		w.ht = &handlerTimer{h: w.srv, reg: w.reg, durs: make([]atomic.Int64, maxRequests)}
		handler = w.ht
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: handler}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		w.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	for i := 0; i < clients; i++ {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	// Warm the store: every built-in request, and a seeded half of the
	// inline tuples. The other half stays unseen until the timed run asks
	// for it, which takes the write path (parse, verify, digest, full
	// pipeline, store write).
	warm := append([]request(nil), u.analyze...)
	for _, i := range w.rng.Perm(len(u.nir))[:len(u.nir)/2] {
		warm = append(warm, u.nir[i])
	}
	if w.st != nil {
		w.st.on.Store(false)
	}
	w.drive(b, "set-up", warm, nil, 0, false)
	return nil
}

// drive sends reqs through the clients in a closed loop, each client
// sending its next request when the previous one completes, checks every
// response, and, when lat is non-nil, records each request's latency in ms.
// With probe set, every probeEvery-th request is followed by a timing of the
// reference kernel on its client.
func (w *serveMixed) drive(b *bench, phase string, reqs []request, lat []float64, firstID int, probe bool) {
	ok := make([]bool, len(reqs))
	why := make([]string, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range w.clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				ok[i], why[i] = w.send(b, cl, reqs[i], firstID+i)
				if lat != nil {
					lat[i] = ms(time.Since(t0))
				}
				if probe && i%probeEvery == probeEvery-1 {
					b.hs.probe()
				}
			}
		}(cl)
	}
	wg.Wait()
	for i := range reqs {
		b.check(ok[i], "serve-mixed %s request %d %s %s: %s", phase, i, reqs[i].path, reqs[i].key, why[i])
	}
}

// send issues one request and checks its response: 200, and the body's
// digest equal to the recorded CLI output (or, for /metrics, a counter
// dump).
func (w *serveMixed) send(b *bench, cl *http.Client, r request, id int) (bool, string) {
	req, err := http.NewRequest(r.method, w.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return false, err.Error()
	}
	req.Header.Set(idHeader, strconv.Itoa(id))
	resp, err := cl.Do(req)
	if err != nil {
		return false, err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)
	}
	if r.key == "" {
		if !bytes.Contains(body, []byte("serve.requests")) {
			return false, "metrics dump lacks serve.requests"
		}
		return true, ""
	}
	if got, want := digest(body), b.exp.Serve[r.key]; got != want {
		return false, fmt.Sprintf("body digest %.12s, want %.12s", got, want)
	}
	return true, ""
}

func (w *serveMixed) run(b *bench) error {
	blocks := max(2, int(math.Round(float64(b.seconds)*requestsPerSecond/block)))
	if b.ops > 0 {
		blocks = max(2, (b.ops+block-1)/block)
	}
	if !b.trace {
		reqs := w.u.sequence(w.rng, blocks*block)
		lat := make([]float64, len(reqs))
		first := len(b.hs.samples)
		t := startTimer()
		w.drive(b, "timed", reqs, lat, 0, true)
		elapsed := t.seconds()
		f := b.hs.factor(first)
		perS := float64(len(reqs)) / elapsed / f
		b.set("op_p50_ms", median(lat)*f)
		b.set("op_per_s", perS)
		b.set("live_heap_mb", liveHeapMB())
		b.rows = append(b.rows,
			fmt.Sprintf("%-12s %-24s %14.4f ms (median of %d requests)", "serve-mixed", "req_p50_ms", median(lat)*f, len(lat)),
			fmt.Sprintf("%-12s %-24s %14.4f ms (%d requests beyond it)", "serve-mixed", "req_p99_ms", percentile(lat, 99)*f, len(lat)/100),
			fmt.Sprintf("%-12s %-24s %14.4f 1/s", "serve-mixed", "req_per_s", perS),
			hostRow("serve-mixed", f, median(lat)))
		return nil
	}
	return w.runTraced(b, blocks)
}

// runTraced alternates untraced and traced blocks of requests, the store
// and handler timers on only for the traced ones, and reports the
// per-layer metrics of the traced blocks.
func (w *serveMixed) runTraced(b *bench, blocks int) error {
	var (
		plainLat, lat   []float64
		reqs            []request
		recs            []doRecord
		memHits, memAll int64
		collapsed       int64
		allocMB, cycles float64
	)
	for blk := 0; blk < blocks; blk++ {
		seq := w.u.sequence(w.rng, block)
		l := make([]float64, len(seq))
		if blk%2 == 0 {
			w.drive(b, "untraced", seq, l, 0, false)
			plainLat = append(plainLat, l...)
			continue
		}
		stats0, collapsed0 := w.st.Stats(), w.srv.Collapsed()
		w.st.on.Store(true)
		w.ht.on.Store(true)
		gc0 := readGC()
		w.drive(b, "traced", seq, l, len(reqs), false)
		gc1 := readGC()
		w.ht.on.Store(false)
		w.st.on.Store(false)
		recs = append(recs, w.st.drain()...)
		h, a := memLookups(stats0, w.st.Stats())
		memHits, memAll = memHits+h, memAll+a
		collapsed += w.srv.Collapsed() - collapsed0
		da, dc := gc1.since(gc0)
		allocMB, cycles = allocMB+da, cycles+dc
		reqs = append(reqs, seq...)
		lat = append(lat, l...)
	}

	n := float64(len(reqs))
	sums := sumRecords(recs)
	capture := ms(sums.compute["profile"]) / n
	b.set("capture.ms", capture)
	b.set("capture.instrs", float64(sums.instrs)/n)
	b.set("capture.occ", float64(sums.occ)/n)
	b.set("capture.ns_per_instr", nsPer(capture, float64(sums.instrs)/n))
	for _, stage := range []string{"inline", "select", "frame"} {
		b.set(stage+".ms", ms(sums.compute[stage])/n)
	}
	for _, stage := range []string{"inline", "profile", "select", "frame"} {
		b.set("store."+stage+".hit_ms", ms(sums.hit[stage])/n)
	}
	b.set("store.hit_ratio", sums.hitRatio())
	b.set("store.mem_hit_ratio", ratio(memHits, memAll))
	b.set("gc.alloc_mb", allocMB/n)
	b.set("gc.cycles", cycles/n)
	b.set("serve.collapsed", float64(collapsed))

	var handler, transport, scrape []float64
	for i, r := range reqs {
		h := ms(time.Duration(w.ht.durs[i].Load()))
		handler = append(handler, h)
		transport = append(transport, lat[i]-h)
		if r.key == "" {
			scrape = append(scrape, lat[i])
		}
	}
	b.set("serve.handler_ms_p50", median(handler))
	b.set("serve.transport_ms_p50", median(transport))
	b.set("metrics.scrape_ms", median(scrape))
	b.set("obs.spans", float64(len(obs.Default().Spans())))
	b.set("trace.overhead_ms", median(lat)-median(plainLat))
	load, vetMs, err := w.timeLoadAndVet(reqs)
	if err != nil {
		return err
	}
	b.set("program.load_us", load)
	b.set("vet.ms", vetMs)
	zeroLayers(b)
	path, err := writeTrace(b.root, "serve-mixed", b.seed, w.reg)
	if err != nil {
		return err
	}
	b.rows = append(b.rows, "chrome trace: "+path)
	return nil
}

// timeLoadAndVet calls program.Load on each traced inline request, and
// vet.Check on each traced vet request, directly; it returns the median
// load time in microseconds and the median vet time in milliseconds.
func (w *serveMixed) timeLoadAndVet(reqs []request) (loadUs, vetMs float64, err error) {
	var loads, vets []float64
	for _, r := range reqs {
		var p *program.Program
		if r.src != "" {
			t0 := time.Now()
			p, err = program.Load(r.src, program.LoadOptions{Args: r.args, Limits: serve.DefaultLimits()})
			if err != nil {
				return 0, 0, fmt.Errorf("loading %s: %w", r.key, err)
			}
			loads = append(loads, float64(time.Since(t0))/1e3)
		}
		if r.path != "/v1/vet" {
			continue
		}
		if p == nil {
			if p, err = workloads.ByName(r.wl).Program(0); err != nil {
				return 0, 0, fmt.Errorf("workload %s: %w", r.wl, err)
			}
		}
		t0 := time.Now()
		if _, err := vet.MarshalReport(vet.Check(nil, p)); err != nil {
			return 0, 0, fmt.Errorf("vet %s: %w", r.key, err)
		}
		vets = append(vets, ms(time.Since(t0)))
	}
	return median(loads), median(vets), nil
}

func (w *serveMixed) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		w.srv.Drain()
		w.hs.Shutdown(ctx) //nolint:errcheck // best effort at exit
		<-w.done
		w.srv.Close()
	}
	obs.Disable()
	for _, cl := range w.clients {
		cl.CloseIdleConnections()
	}
}
