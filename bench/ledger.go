package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// ledger is a committed record of benchmark runs: two or more sets of
// untraced runs of every workload, one traced run per workload, and the
// host they ran on.
type ledger struct {
	Host     host           `json:"host"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Notes    []string       `json:"notes"`
	EndToEnd []metricDef    `json:"end_to_end"`
	PerLayer []metricDef    `json:"per_layer"`
	Sets     [][]*runResult `json:"sets"`
	Traced   []*runResult   `json:"traced"`
}

// host identifies the machine and build a ledger was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = " with uncommitted changes"
			}
		}
		h.Commit += dirty
	}
	return h
}

// notes are the conditions every ledger states.
func notes(h host) []string {
	speedup := "Parallel speedup is not measured here and is not extrapolated."
	if h.NProc <= 2 {
		speedup = fmt.Sprintf("A %d-core host cannot measure parallel speedup; none is claimed or extrapolated.", h.NProc)
	}
	return []string{
		"The kernel store is opened with NoSync: with fsync the shared disk would be measured instead of the program.",
		"No tuning profile is loaded: every solve runs the built-in defaults.",
		fmt.Sprintf("Load is %d closed-loop clients, each on one keep-alive connection.", clients),
		speedup,
	}
}

// A ledger holds ledgerSets sets of ledgerRuns untraced passes over
// every workload: two sets of the same code, whose medians must agree
// within each metric's bound.
const (
	ledgerSets = 2
	ledgerRuns = 3
)

// writeLedger runs the untraced passes and one traced run per workload,
// and writes the ledger to path.
func writeLedger(cfg runConfig, path string, progress io.Writer) error {
	h := hostInfo()
	l := ledger{Host: h, Seed: cfg.seed, Seconds: cfg.seconds, Notes: notes(h), EndToEnd: endToEnd, PerLayer: perLayer}
	one := func(w string, trace bool) (*runResult, error) {
		c := cfg
		c.workload, c.trace = w, trace
		res, err := runOne(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		fmt.Fprintf(progress, "%s trace=%v: attempted %d failed %d\n", w, trace, res.Attempted, res.Failed)
		return res, nil
	}
	for s := 0; s < ledgerSets; s++ {
		var set []*runResult
		for r := 0; r < ledgerRuns; r++ {
			for _, w := range workloads {
				res, err := one(w, false)
				if err != nil {
					return err
				}
				set = append(set, res)
			}
		}
		l.Sets = append(l.Sets, set)
	}
	for _, w := range workloads {
		res, err := one(w, true)
		if err != nil {
			return err
		}
		l.Traced = append(l.Traced, res)
	}
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// values gathers one metric's values per workload over runs.
func values(runs []*runResult, name string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	return out
}

// iqrs gathers one metric's recorded within-run spreads per workload.
func iqrs(runs []*runResult, name string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		if d, ok := r.Detail[name]; ok {
			out[r.Workload] = append(out[r.Workload], d.IQR)
		}
	}
	return out
}

func (l *ledger) untraced() []*runResult {
	var all []*runResult
	for _, set := range l.Sets {
		all = append(all, set...)
	}
	return all
}

// compare prints how cur differs from old and reports whether cur is
// acceptable: no end-to-end median worse than its bound in s on any
// workload, and no rise in any workload's failure ratio. Per-layer
// metrics that moved by more than three times their spread are listed
// but never fail the comparison.
func compare(s *spec, old, cur *ledger, out io.Writer) bool {
	ok := true
	oldRuns, newRuns := old.untraced(), cur.untraced()
	fmt.Fprintf(out, "end-to-end (median of untraced runs; bound from BENCHMARK.json)\n")
	for _, m := range s.EndToEnd {
		ov, nv := values(oldRuns, m.Name), values(newRuns, m.Name)
		for _, w := range workloads {
			if len(ov[w]) == 0 || len(nv[w]) == 0 {
				continue
			}
			o, n := summarize(ov[w]).Median, summarize(nv[w]).Median
			worse := (n - o) / o
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if o == 0 || math.IsNaN(worse) {
				verdict = "unresolved (zero baseline)"
			} else if worse > m.Bound {
				verdict = fmt.Sprintf("REGRESSION (worse by %.1f%% > %.0f%%)", 100*worse, 100*m.Bound)
				ok = false
			}
			fmt.Fprintf(out, "  %-14s %-16s %12.4g -> %12.4g %-5s %s\n", w, m.Name, o, n, m.Unit, verdict)
		}
	}
	failRatio := func(runs []*runResult, w string) (float64, bool) {
		var a, f int64
		for _, r := range runs {
			if r.Workload == w {
				a, f = a+r.Attempted, f+r.Failed
			}
		}
		return safeDiv(float64(f), float64(a)), a > 0
	}
	for _, w := range workloads {
		o, ook := failRatio(oldRuns, w)
		n, nok := failRatio(newRuns, w)
		if ook && nok && n > o {
			fmt.Fprintf(out, "  %-14s %-16s %12.4g -> %12.4g       REGRESSION (more units failed)\n", w, "fail_ratio", o, n)
			ok = false
		}
	}
	fmt.Fprintf(out, "per-layer rows that moved by more than 3×IQR (informational)\n")
	var moved []string
	for _, m := range s.PerLayer {
		ov, nv := values(old.Traced, m.Name), values(cur.Traced, m.Name)
		oi, ni := iqrs(old.Traced, m.Name), iqrs(cur.Traced, m.Name)
		for _, w := range workloads {
			if len(ov[w]) == 0 || len(nv[w]) == 0 {
				continue
			}
			o, n := summarize(ov[w]).Median, summarize(nv[w]).Median
			noise := math.Max(summarize(oi[w]).Median, summarize(ni[w]).Median)
			if math.Abs(n-o) > 3*noise && n != o {
				moved = append(moved, fmt.Sprintf("  %-14s %-44s %12.4g -> %12.4g %s (IQR %.3g)", w, m.Name, o, n, m.Unit, noise))
			}
		}
	}
	sort.Strings(moved)
	for _, line := range moved {
		fmt.Fprintln(out, line)
	}
	if len(moved) == 0 {
		fmt.Fprintln(out, "  none")
	}
	return ok
}
