package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// shortOps is each workload's work in short mode: two sweeps, or two
// blocks of requests.
var shortOps = map[string]int{"sweep-cold": 2, "ablate-warm": 2, "serve-mixed": 2 * block}

// runShort runs one workload in short mode, with no setup probes, and
// returns its result and human-readable output.
func runShort(t *testing.T, name string, trace bool, exp *expected) (*result, string) {
	t.Helper()
	var log bytes.Buffer
	b := &bench{seed: 7, seconds: 1, ops: shortOps[name], trace: trace, root: "..", exp: exp, log: &log}
	res, err := b.execute(name)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	return res, log.String()
}

func TestSpecMatchesBenchmark(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer)
}

func TestShortRunEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			exp, err := loadExpected()
			if err != nil {
				t.Fatal(err)
			}
			res, log := runShort(t, name, trace, exp)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, log)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s missing or not in %s: %+v", name, trace, m.Name, m.Unit, got)
				}
			}
			if !trace {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

func TestTracedCountsAreExact(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := runShort(t, "sweep-cold", true, exp)
	if got := res.Metrics["capture.instrs"].Value; got != float64(exp.Sweep.Instrs) {
		t.Errorf("capture.instrs = %v, want %d", got, exp.Sweep.Instrs)
	}
	if got := res.Metrics["capture.occ"].Value; got != float64(exp.Sweep.Occ) {
		t.Errorf("capture.occ = %v, want %d", got, exp.Sweep.Occ)
	}
}

// TestCorruptDigestCountsAsFailure proves the correctness checks can fail:
// with one corrupted expected digest per workload, the run reports failed
// operations and is not correct.
func TestCorruptDigestCountsAsFailure(t *testing.T) {
	corrupt := func(d string) string { return strings.Repeat("0", len(d)) }
	cases := map[string]func(*expected){
		"sweep-cold": func(e *expected) { e.Sweep.Digest = corrupt(e.Sweep.Digest) },
		"ablate-warm": func(e *expected) {
			for _, c := range ablateUniverse() {
				e.Ablate[c.key] = corrupt(e.Ablate[c.key])
			}
		},
		"serve-mixed": func(e *expected) {
			for k, d := range e.Serve {
				if strings.HasPrefix(k, "analyze/") {
					e.Serve[k] = corrupt(d)
				}
			}
		},
	}
	for name, mutate := range cases {
		exp, err := loadExpected()
		if err != nil {
			t.Fatal(err)
		}
		mutate(exp)
		res, _ := runShort(t, name, false, exp)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted digest: correct=%t failed=%d, want a counted failure", name, res.Correct, res.Failed)
		}
	}
}
