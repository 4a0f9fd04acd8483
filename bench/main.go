// Command bench is the serving benchmark of this repository: five
// fixed-seed HTTP workloads against an in-process sharded server on a
// loopback port, a ladder of timed calls into each layer's exported
// functions, and a traced run that splits every workload's time across
// the layers. See README.md for the metrics and what each one should
// move.
//
// One workload, printing its metrics and a final JSON result line:
//
//	bench -workload batch_hot -seed 1 -seconds 10 -trace 0
//
// Every workload, several times, into a ledger file:
//
//	bench -seed 1 -out results/ledger.json
//
// Two ledgers, gated by the bounds in BENCHMARK.json:
//
//	bench compare OLD.json NEW.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload and print its result line; empty runs every workload into the -out ledger")
	seed := fs.Int64("seed", 1, "workload seed: one seed, one set of inputs")
	seconds := fs.Float64("seconds", 10, "measured window of one run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the ladder and a traced run")
	out := fs.String("out", "", "ledger file to write when -workload is empty")
	work := fs.String("work", ".bench_build", "directory for the temporary kernel stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1, -seconds positive, and no arguments follow the flags")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSizes, work: *work}
	if *workload == "" {
		if *out == "" {
			fmt.Fprintln(stderr, "bench: give -workload to run one workload, or -out to write a ledger of all of them")
			return 2
		}
		if err := writeLedger(cfg, *out, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	res, err := runOne(cfg)
	if res != nil {
		if perr := printResult(stdout, res); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	return 0
}

// printResult writes one `workload metric value unit` line per metric,
// then the result as one JSON object on the last line.
func printResult(w io.Writer, res *runResult) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %v %s\n", res.Workload, name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// compareCmd is `bench compare OLD.json NEW.json`: exit 1 when NEW
// regresses an end-to-end metric past its bound or fails more units.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare OLD.json NEW.json")
		return 2
	}
	s, err := findSpec()
	old, oerr := readLedger(args[0])
	cur, cerr := readLedger(args[1])
	if err := errors.Join(err, oerr, cerr); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !compare(s, old, cur, stdout) {
		return 1
	}
	return 0
}
