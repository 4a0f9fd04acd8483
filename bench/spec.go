package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one named metric. Moves says, for a per-layer metric,
// which end-to-end metric on which workload a change to it should move,
// written down before anything is measured.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves,omitempty"`
}

// endToEnd are the metrics a client of the serving tier sees, measured
// with tracing off. Failures are not a metric: every run reports its
// attempted and failed units beside them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "throughput_rps", Unit: "units/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower"},
}

const (
	movesHot    = "throughput_rps and latency_p50_ms on batch_hot"
	movesCold   = "throughput_rps on batch_cold"
	movesNear   = "throughput_rps and latency_p50_ms on batch_near"
	movesStream = "throughput_rps on stream_single and stream_group"
	movesGroup  = "throughput_rps on stream_group"
	movesSetup  = "setup_s on every workload"
	movesNone   = "no end-to-end metric; guards an EXPERIMENTS.md figure"
)

// perLayer are the metrics of single layers, named by module: the
// ladder's timed public calls and the traced run's per-unit stage
// times and counter ratios.
var perLayer = []metricDef{
	{"server.decode_hot_us", "us", "lower", movesHot},
	{"server.decode_hot_b64_us", "us", "lower", movesHot},
	{"server.decode_near_ms", "ms", "lower", "latency_p50_ms on batch_near"},
	{"server.encode_hot_us", "us", "lower", movesHot},
	{"server.route_key_us", "us", "lower", movesHot},
	{"server.wire_share", "ratio", "lower", "latency_p50_ms on the traced workload"},
	{"server.server_request_us_per_unit", "us/unit", "lower", "latency_p50_ms on the traced workload"},
	{"server.server_route_us_per_unit", "us/unit", "lower", movesHot},

	{"query.acquire_hit_us", "us", "lower", movesHot},
	{"query.acquire_miss_ms", "ms", "lower", movesCold + "; setup_s"},
	{"query.batch_dup64_us", "us", "lower", movesHot},
	{"query.session_score_ns", "ns", "lower", movesHot},
	{"query.session_string_substring_ns", "ns", "lower", movesHot},
	{"query.session_substring_string_ns", "ns", "lower", movesHot},
	{"query.session_suffix_prefix_ns", "ns", "lower", movesHot},
	{"query.session_prefix_suffix_ns", "ns", "lower", movesHot},
	{"query.session_windows_us", "us", "lower", movesHot},
	{"query.session_best_window_us", "us", "lower", movesHot},
	{"query.prepare_us", "us", "lower", movesCold + "; setup_s"},
	{"query.stream_script_ms", "ms", "lower", "throughput_rps on stream_single"},
	{"query.group_script_ms", "ms", "lower", movesGroup},
	{"query.queue_wait_us_per_unit", "us/unit", "lower", "latency_p50_ms on batch_*"},
	{"query.cache_hit_us_per_unit", "us/unit", "lower", movesHot},
	{"query.cache_miss_us_per_unit", "us/unit", "lower", movesCold},
	{"query.prepare_us_per_unit", "us/unit", "lower", movesCold},
	{"query.query_us_per_unit", "us/unit", "lower", movesHot},
	{"query.cache_hit_ratio", "ratio", "higher", movesHot},
	{"query.band_fallback_ratio", "ratio", "lower", movesNear},
	{"query.evictions_per_unit", "count/unit", "lower", movesHot},

	{"core.solve_ms.semi_rowmajor.1024", "ms", "lower", movesNone},
	{"core.solve_ms.semi_antidiag.1024", "ms", "lower", movesNone},
	{"core.solve_ms.semi_antidiag_simd.1024", "ms", "lower", movesCold},
	{"core.solve_ms.semi_load_balanced.1024", "ms", "lower", movesNone},
	{"core.solve_ms.semi_recursive.1024", "ms", "lower", movesNone},
	{"core.solve_ms.semi_hybrid.1024", "ms", "lower", movesNone},
	{"core.solve_ms.semi_hybrid_iterative.1024", "ms", "lower", movesNone},
	{"core.solve_ms.semi_antidiag_simd.4096", "ms", "lower", movesCold},
	{"core.solve_us_per_unit", "us/unit", "lower", movesCold},
	{"core.comb_cells_per_unit", "cells/unit", "lower", movesCold},

	{"steadyant.compose_us", "us", "lower", movesStream},

	{"store.get_us", "us", "lower", movesSetup},
	{"store.put_us", "us", "lower", "nothing on request latency (appends are asynchronous)"},
	{"store.open_ms", "ms", "lower", movesSetup},
	{"store.store_read_us_per_unit", "us/unit", "lower", movesSetup},
	{"store.store_append_us_per_unit", "us/unit", "lower", "nothing on request latency (appends are asynchronous)"},
	{"store.store_hit_ratio", "ratio", "higher", movesSetup},

	{"banded.probe_similar_us", "us", "lower", movesNear},
	{"banded.probe_divergent_us", "us", "lower", movesHot},
	{"banded.lcs_ms.n32768.k16", "ms", "lower", movesNear},
	{"banded.distance_ms.n1e6.k16", "ms", "lower", movesNear},
	{"banded.distance_ms.n1e6.k256", "ms", "lower", movesNear},
	{"banded.band_probe_us_per_unit", "us/unit", "lower", movesNear + "; batch_hot"},
	{"banded.banded_bfs_us_per_unit", "us/unit", "lower", movesNear},

	{"stream.append_steady_us", "us", "lower", "throughput_rps on stream_single"},
	{"stream.group_round_us.p1", "us", "lower", movesGroup},
	{"stream.group_round_us.p256", "us", "lower", movesGroup},
	{"stream.stream_append_us_per_unit", "us/unit", "lower", "throughput_rps on stream_single"},
	{"stream.stream_compose_us_per_unit", "us/unit", "lower", movesStream},
	{"stream.stream_group_append_us_per_unit", "us/unit", "lower", movesGroup},
	{"stream.stream_group_fanout_us_per_unit", "us/unit", "lower", movesGroup},
	{"stream.leaf_share_ratio", "ratio", "higher", movesGroup},
	{"stream.compositions_per_unit", "count/unit", "lower", movesStream},

	{"latency_p99_ms", "ms", "lower", "none; the call latency tail of the untraced baseline window, too unsteady to gate"},
	{"bench.server_share", "ratio", "higher", "none; the rest of a call is transport and client"},
	{"bench.trace_overhead_ratio", "ratio", "higher", "none; traced over untraced throughput_rps"},
}

// unitOf returns the unit a metric is defined with.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: undefined metric " + name)
}

// spec is BENCHMARK.json: the benchmark's contract with whoever runs
// and gates it.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []gatedMetric  `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// gatedMetric is an end-to-end metric with its bound: the share of the
// baseline median by which it may worsen before a change regresses.
type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// loadSpec reads and strictly decodes a BENCHMARK.json.
func loadSpec(path string) (*spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// findSpec locates BENCHMARK.json from the repository root or from the
// benchmark's own directory.
func findSpec() (*spec, error) {
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if _, err := os.Stat(p); err == nil {
			return loadSpec(p)
		}
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}
