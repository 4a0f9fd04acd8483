package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// validName is the shape BENCHMARK.json names must have.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 0.15, trace: trace, sz: tinySizes, work: t.TempDir()}
}

func TestSpecMatchesTheMetricTables(t *testing.T) {
	s := loadRepoSpec(t)
	if len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(s.EndToEnd), len(s.PerLayer))
	}
	seen := map[string]bool{}
	for _, name := range append(append([]string(nil), s.names()...), workloadNames(s)...) {
		if !validName.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	if !slices.Equal(workloadNames(s), workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", workloadNames(s), workloads)
	}
	want := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		want[d.Name] = d
	}
	for _, m := range s.EndToEnd {
		if d := want[m.Name]; d.Unit != m.Unit || d.Better != m.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %+v does not match the benchmark's %+v or has a bound outside (0, 0.25]", m, d)
		}
	}
	for _, m := range s.PerLayer {
		if d := want[m.Name]; d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %+v does not match the benchmark's %+v", m, d)
		}
	}
	if i := slices.IndexFunc(s.EndToEnd, func(m gatedMetric) bool { return m.Name == "setup_s" }); i < 0 || s.EndToEnd[i].Unit != "s" || s.EndToEnd[i].Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better")
	}
}

func (s *spec) names() []string {
	var out []string
	for _, m := range s.EndToEnd {
		out = append(out, m.Name)
	}
	for _, m := range s.PerLayer {
		out = append(out, m.Name)
	}
	return out
}

func workloadNames(s *spec) []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

func metricNames(res *runResult) []string {
	var out []string
	for name := range res.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Every workload, untraced and traced (which runs every ladder row),
// answers correctly at tiny scale and emits exactly the metrics
// BENCHMARK.json lists for its mode.
func TestEveryWorkloadAndLadderRowAtTinyScale(t *testing.T) {
	s := loadRepoSpec(t)
	var e2e, layer []string
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range s.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(tinyRun(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			if got := metricNames(res); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v emits %v\nwant %v", w, trace, got, want)
			}
		}
	}
}

// A response tampered on its way to the client fails the run, whether
// the answer is checked inline (batch_hot) or after the window from a
// sample (batch_cold).
func TestTamperedResponseFailsTheRun(t *testing.T) {
	tamper := func(data []byte) []byte {
		return bytes.Replace(data, []byte(`"score":`), []byte(`"score":1`), 1)
	}
	for _, w := range []string{"batch_hot", "batch_cold"} {
		cfg := tinyRun(t, w, false)
		cfg.mangle = tamper
		res, err := runOne(cfg)
		var wrong *errWrong
		if !errors.As(err, &wrong) || res == nil || res.Correct {
			t.Errorf("%s: tampered run returned %v (result %+v), want a wrong-answer failure", w, err, res)
		}
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	res := &runResult{Workload: "batch_hot", Correct: true, Attempted: 3, Metrics: map[string]metricValue{}, Detail: map[string]detail{}}
	res.put("setup_s", 0.25, detail{})
	var out bytes.Buffer
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "batch_hot setup_s 0.25 s" {
		t.Errorf("metric line %q", lines[0])
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result line keys %v", keys)
	}
}
