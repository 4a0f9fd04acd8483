package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestLoadgenSmoke runs a tiny self-hosted closed loop and checks the
// report carries every section: the harness itself is load-bearing for
// the EXPERIMENTS.md scaling numbers, so it must not rot.
func TestLoadgenSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-shards", "2", "-clients", "4", "-duration", "300ms",
		"-hot", "8", "-size", "64", "-hit-permille", "800", "-batch", "2",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"# self-hosting 2 shard(s)",
		"calls=", "qps=", "call-errors=0", "request-errors=0",
		"latency p50=", "slo(50ms)=",
		"tier: hits=", " misses=", " evictions=", " sheds=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestLoadgenPaced: with a QPS target well under the tier's capacity,
// the achieved rate must land near the target (pacing, not saturation).
func TestLoadgenPaced(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-shards", "1", "-clients", "2", "-duration", "500ms",
		"-qps", "100", "-hot", "4", "-size", "64",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "qps=") {
		t.Fatalf("no qps in report:\n%s", out.String())
	}
	var qps float64
	for _, line := range strings.Split(out.String(), "\n") {
		i := strings.Index(line, " qps=")
		if i < 0 {
			continue
		}
		field := line[i+len(" qps="):]
		if j := strings.IndexByte(field, ' '); j >= 0 {
			field = field[:j]
		}
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		qps = v
	}
	if qps < 40 || qps > 160 {
		t.Errorf("paced run achieved %v QPS, want ≈100", qps)
	}
}
