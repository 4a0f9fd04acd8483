package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is a point-in-time copy of a Recorder: one histogram
// snapshot per stage plus the counters. Snapshots merge bucket-wise —
// Merge is associative and commutative with the zero Snapshot as
// identity — so per-worker or per-process recorders can be combined in
// any grouping before rendering.
type Snapshot struct {
	Stages          [NumStages]HistSnapshot
	Counters        [NumCounters]int64
	ComposeDepthMax int64
}

// Merge returns the snapshot combining s and o.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := s
	for i := range out.Stages {
		out.Stages[i] = out.Stages[i].Merge(o.Stages[i])
	}
	for i := range out.Counters {
		out.Counters[i] += o.Counters[i]
	}
	if o.ComposeDepthMax > out.ComposeDepthMax {
		out.ComposeDepthMax = o.ComposeDepthMax
	}
	return out
}

// SolveCoverage returns the fraction of total solve wall time accounted
// for by the non-overlapping leaf stages nested inside solves
// (combing passes, kernel relabeling, braid multiplications, bit-block
// loops). Sequential solves yield a value ≤ 1; parallel solves can
// exceed 1 because concurrent leaf spans sum CPU time against one wall
// interval. Returns 0 when no solve was recorded.
func (s Snapshot) SolveCoverage() float64 {
	total := s.Stages[StageSolve].Sum
	if total == 0 {
		return 0
	}
	var leaf int64
	for _, st := range solveChildren {
		leaf += s.Stages[st].Sum
	}
	return float64(leaf) / float64(total)
}

// isSolveChild reports whether st participates in SolveCoverage.
func isSolveChild(st Stage) bool {
	for _, c := range solveChildren {
		if c == st {
			return true
		}
	}
	return false
}

// WriteBreakdown renders the per-stage breakdown table that
// cmd/semilocal's -trace-stages flag prints: one row per stage that
// recorded at least one span, the event counters, and the coverage
// line relating leaf stages to solve wall time.
func (s Snapshot) WriteBreakdown(w io.Writer) {
	fmt.Fprintf(w, "stage breakdown:\n")
	fmt.Fprintf(w, "  %-12s %9s %12s %12s %12s %12s %8s\n",
		"stage", "count", "total", "mean", "p95", "max", "share")
	solveNS := s.Stages[StageSolve].Sum
	for st := Stage(0); st < NumStages; st++ {
		h := s.Stages[st]
		if h.Count == 0 {
			continue
		}
		share := "-"
		if st != StageSolve && isSolveChild(st) && solveNS > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(h.Sum)/float64(solveNS))
		}
		fmt.Fprintf(w, "  %-12s %9d %12v %12v %12v %12v %8s\n",
			st, h.Count, h.Total(), h.Mean(), h.Quantile(0.95), time.Duration(h.Max), share)
	}
	first := true
	for c := CounterID(0); c < NumCounters; c++ {
		if s.Counters[c] == 0 {
			continue
		}
		if first {
			fmt.Fprintf(w, "  counters:")
			first = false
		}
		fmt.Fprintf(w, " %s=%d", c, s.Counters[c])
	}
	if !first {
		fmt.Fprintln(w)
	}
	if s.ComposeDepthMax > 0 {
		fmt.Fprintf(w, "  compose depth max: %d\n", s.ComposeDepthMax)
	}
	if solveNS > 0 {
		fmt.Fprintf(w, "  accounted: %.1f%% of solve wall time across %d solve(s)\n",
			100*s.SolveCoverage(), s.Stages[StageSolve].Count)
	}
}

// Vars flattens the snapshot into absolute values by name:
// obs_stage_<stage>_count and obs_stage_<stage>_ns for every stage with
// recorded spans, obs_<counter> for every nonzero counter, and
// obs_compose_depth_max once a composition recorded its depth.
func (s Snapshot) Vars() map[string]int64 {
	vars := make(map[string]int64)
	for st := Stage(0); st < NumStages; st++ {
		h := s.Stages[st]
		if h.Count == 0 {
			continue
		}
		vars["obs_stage_"+st.String()+"_count"] = int64(h.Count)
		vars["obs_stage_"+st.String()+"_ns"] = h.Sum
	}
	for c := CounterID(0); c < NumCounters; c++ {
		if s.Counters[c] == 0 {
			continue
		}
		vars["obs_"+c.String()] = s.Counters[c]
	}
	if s.ComposeDepthMax > 0 {
		vars["obs_compose_depth_max"] = s.ComposeDepthMax
	}
	return vars
}

// WriteMetrics renders the snapshot (plus optional extra counters, e.g.
// an engine's counter-set snapshot) in the Prometheus text
// exposition format. Stage histograms appear only once they have
// observations (so scrape output stays proportional to what actually
// ran); counters and extras always appear, with a stable ordering
// throughout — the metrics golden test pins the exact shape.
func WriteMetrics(w io.Writer, s Snapshot, extra map[string]int64) {
	fmt.Fprintf(w, "# HELP semilocal_stage_duration_seconds Latency of one solver or serving stage.\n")
	fmt.Fprintf(w, "# TYPE semilocal_stage_duration_seconds histogram\n")
	for st := Stage(0); st < NumStages; st++ {
		h := s.Stages[st]
		if h.Count == 0 {
			continue
		}
		cum := uint64(0)
		for i := 0; i < NumBuckets; i++ {
			cum += h.Counts[i]
			fmt.Fprintf(w, "semilocal_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n",
				st.String(), formatSeconds(BucketUpper(i)), cum)
		}
		fmt.Fprintf(w, "semilocal_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", st.String(), h.Count)
		fmt.Fprintf(w, "semilocal_stage_duration_seconds_sum{stage=%q} %s\n",
			st.String(), formatSeconds(time.Duration(h.Sum)))
		fmt.Fprintf(w, "semilocal_stage_duration_seconds_count{stage=%q} %d\n", st.String(), h.Count)
	}
	fmt.Fprintf(w, "# HELP semilocal_obs_counter Solver event counters.\n")
	fmt.Fprintf(w, "# TYPE semilocal_obs_counter counter\n")
	for c := CounterID(0); c < NumCounters; c++ {
		fmt.Fprintf(w, "semilocal_obs_counter{name=%q} %d\n", c.String(), s.Counters[c])
	}
	fmt.Fprintf(w, "# HELP semilocal_obs_compose_depth_max Deepest observed steady-ant recursion.\n")
	fmt.Fprintf(w, "# TYPE semilocal_obs_compose_depth_max gauge\n")
	fmt.Fprintf(w, "semilocal_obs_compose_depth_max %d\n", s.ComposeDepthMax)
	if extra != nil {
		fmt.Fprintf(w, "# HELP semilocal_engine_counter Query engine counters.\n")
		fmt.Fprintf(w, "# TYPE semilocal_engine_counter gauge\n")
		for _, name := range SortedNames(extra) {
			fmt.Fprintf(w, "semilocal_engine_counter{name=%q} %d\n", name, extra[name])
		}
	}
}

// SortedNames returns the names of a counter map in sorted order.
func SortedNames(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// StatsLine renders a counter map as "name=value" pairs in sorted-name
// order: the one-line summary of Engine.StatsLine and Server.StatsLine.
func StatsLine(m map[string]int64) string {
	parts := make([]string, 0, len(m))
	for _, name := range SortedNames(m) {
		parts = append(parts, fmt.Sprintf("%s=%d", name, m[name]))
	}
	return strings.Join(parts, " ")
}

// formatSeconds renders a duration as decimal seconds the way
// Prometheus clients conventionally do (shortest round-trip float).
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}
