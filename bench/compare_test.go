package main

import (
	"bytes"
	"strings"
	"testing"
)

// testSpec gates throughput (higher is better) and p50 latency (lower
// is better) at 10 %, and lists one per-layer metric.
func testSpec() *spec {
	return &spec{
		EndToEnd: []gatedMetric{
			{"throughput_rps", "units/s", "higher", 0.1},
			{"latency_p50_ms", "ms", "lower", 0.1},
		},
		PerLayer: []layerMetric{{"query.acquire_hit_us", "us", "lower"}},
	}
}

// synthetic builds a ledger of two sets of three batch_hot runs around
// the given medians, plus one traced run.
func synthetic(rps, p50 float64, failed int64, hitUS, hitIQR float64) *ledger {
	l := &ledger{}
	for s := 0; s < 2; s++ {
		var set []*runResult
		for i, jitter := range []float64{0.99, 1, 1.01} {
			set = append(set, &runResult{
				Workload: "batch_hot", Correct: true, Attempted: 1000, Failed: failed * int64(i%2),
				Metrics: map[string]metricValue{
					"throughput_rps": {Value: rps * jitter, Unit: "units/s"},
					"latency_p50_ms": {Value: p50 * jitter, Unit: "ms"},
				},
			})
		}
		l.Sets = append(l.Sets, set)
	}
	l.Traced = []*runResult{{
		Workload: "batch_hot", Trace: true, Correct: true,
		Metrics: map[string]metricValue{"query.acquire_hit_us": {Value: hitUS, Unit: "us"}},
		Detail:  map[string]detail{"query.acquire_hit_us": {Samples: 100, IQR: hitIQR}},
	}}
	return l
}

func TestCompareGatesEndToEndBounds(t *testing.T) {
	base := synthetic(40000, 0.5, 0, 3, 0.1)
	for _, c := range []struct {
		name   string
		cur    *ledger
		ok     bool
		output string
	}{
		{"identical", synthetic(40000, 0.5, 0, 3, 0.1), true, "ok"},
		{"within bound", synthetic(37000, 0.54, 0, 3, 0.1), true, "ok"},
		{"throughput drop", synthetic(35000, 0.5, 0, 3, 0.1), false, "REGRESSION (worse by 12.5%"},
		{"latency rise", synthetic(40000, 0.6, 0, 3, 0.1), false, "REGRESSION (worse by 20.0%"},
		{"faster is fine", synthetic(60000, 0.3, 0, 3, 0.1), true, "ok"},
		{"more failures", synthetic(40000, 0.5, 5, 3, 0.1), false, "more units failed"},
	} {
		var out bytes.Buffer
		if got := compare(testSpec(), base, c.cur, &out); got != c.ok {
			t.Errorf("%s: compare = %v, want %v\n%s", c.name, got, c.ok, out.String())
		}
		if !strings.Contains(out.String(), c.output) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.output, out.String())
		}
	}
}

func TestCompareListsPerLayerMovesWithoutFailing(t *testing.T) {
	base := synthetic(40000, 0.5, 0, 3, 0.1)
	var out bytes.Buffer
	if !compare(testSpec(), base, synthetic(40000, 0.5, 0, 4, 0.1), &out) {
		t.Fatalf("a per-layer move failed the comparison:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "query.acquire_hit_us") {
		t.Errorf("a move of 10×IQR is not listed:\n%s", out.String())
	}
	out.Reset()
	compare(testSpec(), base, synthetic(40000, 0.5, 0, 3.2, 0.1), &out)
	if strings.Contains(out.String(), "query.acquire_hit_us") {
		t.Errorf("a move of 2×IQR is listed:\n%s", out.String())
	}
}
