// Semilocal is a command-line interface to the semi-local LCS library.
//
// It reads two strings (raw files, inline text, or the first record of
// FASTA files), computes their semi-local LCS kernel with a chosen
// algorithm, and answers queries:
//
//	semilocal -a-text ABCABBA -b-text CBABAC score
//	semilocal -alg hybrid -workers 8 a.txt b.txt score
//	semilocal -fasta a.fa b.fa windows -width 100 -top 5
//	semilocal a.txt b.txt query -kind string-substring -from 10 -to 90
//	semilocal -serve-batch queries.txt -workers 4
//
// Subcommands (their flags follow the subcommand name):
//
//	score     print LCS(a, b)
//	windows   print the best -top windows of b of width -width by
//	          LCS score against the whole of a
//	query     print one quadrant query; -kind selects
//	          string-substring | substring-string | suffix-prefix |
//	          prefix-suffix, with the range [-from, -to)
//
// The -serve-batch mode instead reads a whole batch of requests from a
// file (one request per line: two whitespace-free strings, a query
// kind, and its arguments), answers them through the concurrent batch
// query engine — duplicate pairs are solved once and served from the
// kernel cache — and prints one answer per line followed by the
// engine's cache counters:
//
//	ABCABBA CBABAC score
//	ABCABBA CBABAC string-substring 1 5
//	ABCABBA CBABAC windows 3
//
// The -stream mode maintains the kernel of a growing, sliding window
// of text against one fixed pattern (given by -a-text or a pattern
// file) and answers queries online: each appended chunk costs one
// small leaf solve plus O(log(n/chunk)) amortized steady-ant
// compositions, never a from-scratch recomb. The op-script file holds
// one operation per line — `append <chunk>`, `slide <k>`, or a query
// kind with its arguments against the current window:
//
//	append GATT
//	score
//	append ACAGATTACA
//	windows 7
//	slide 1
//	string-substring 2 9
//
//	semilocal -a-text GATTACA -stream ops.txt
//
// Op scripts that open with `pattern <p>` lines run a multi-pattern
// session group instead: the -a-text pattern is pattern 0, each
// declaration adds the next index, every append/slide mutates all
// pattern spines in lockstep with the chunk's text-side work shared
// across patterns, and a query line may address a pattern with an
// `@<i>` prefix (default pattern 0):
//
//	pattern TACA
//	append GATTACA
//	score
//	@1 score
//
// Serving hardening (-serve-batch and -stream): -deadline bounds each
// request or stream mutation, -retries with -retry-backoff re-attempts
// transient failures, -max-queue sheds requests past a queue bound
// (batch only), and -degrade-below falls back to the sequential
// algorithm when a request's remaining deadline is short. -chaos
// injects deterministic faults (seeded by -chaos-seed) into the
// serving path for drills:
//
//	semilocal -serve-batch queries.txt -max-queue 3
//	semilocal -serve-batch queries.txt -chaos "solve:error:1000:0:2" -retries 3
//	semilocal -a-text GATTACA -stream ops.txt -chaos "stream:error:1000:0:2" -retries 3
//
// Observability: -trace-stages appends a per-solve stage breakdown
// table (where the wall time went: combing passes, braid composition,
// query-structure preparation, cache waits) to the output of any LCS
// subcommand or batch run. With -serve-batch, -metrics ADDR serves
// Prometheus text on http://ADDR/metrics plus expvar (/debug/vars) and
// pprof (/debug/pprof/) for the duration of the batch; -metrics -
// prints one final exposition to standard output instead.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"semilocal"
	"semilocal/internal/dataset"
)

var algorithms = map[string]semilocal.Algorithm{
	"rowmajor":      semilocal.RowMajor,
	"antidiag":      semilocal.Antidiag,
	"simd":          semilocal.AntidiagBranchless,
	"load-balanced": semilocal.LoadBalanced,
	"recursive":     semilocal.Recursive,
	"hybrid":        semilocal.Hybrid,
	"grid":          semilocal.GridReduction,
}

func algorithmNames() string {
	names := make([]string, 0, len(algorithms))
	for n := range algorithms {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "semilocal:", err)
		os.Exit(1)
	}
}

// cliFlags holds the values of every command-line flag.
type cliFlags struct {
	alg, aText, bText, batch, streamFile        string
	metricsAddr, chaosSpec, storeDir, serveAddr string
	workers, maxQueue, retries, bandMaxK        int
	shards, tenantQuota                         int
	fasta, edit, traceStages, bandedMode        bool
	retryBackoff, deadline, degradeBelow        time.Duration
	chaosSeed                                   uint64
}

// newFlagSet declares the command line. The "with -X:" prefix of a
// usage string names the modes flagRules requires the flag to run in.
func newFlagSet() (*flag.FlagSet, *cliFlags) {
	fs := flag.NewFlagSet("semilocal", flag.ContinueOnError)
	f := &cliFlags{}
	fs.StringVar(&f.alg, "alg", "simd", "algorithm: "+algorithmNames())
	fs.IntVar(&f.workers, "workers", 1, "worker goroutines")
	fs.StringVar(&f.aText, "a-text", "", "inline string a (instead of a file)")
	fs.StringVar(&f.bText, "b-text", "", "inline string b (instead of a file)")
	fs.BoolVar(&f.fasta, "fasta", false, "treat input files as FASTA; the first record is used")
	fs.BoolVar(&f.edit, "edit", false, "measure unit-cost edit distance instead of LCS score")
	fs.StringVar(&f.batch, "serve-batch", "", "answer a whole file of requests through the batch query engine")
	fs.StringVar(&f.streamFile, "stream", "", "answer an op-script file (append/slide/query lines) through a streaming session against the pattern")
	fs.BoolVar(&f.traceStages, "trace-stages", false, "append a per-solve stage breakdown table")
	fs.StringVar(&f.metricsAddr, "metrics", "", "with -serve-batch or -stream: serve /metrics, /debug/vars and /debug/pprof on this address ('-' prints one exposition to stdout)")
	fs.IntVar(&f.maxQueue, "max-queue", 0, "with -serve-batch or -serve-addr: shed requests past this queue bound (0 = unbounded)")
	fs.IntVar(&f.retries, "retries", 0, "with -serve-batch, -stream or -serve-addr: total solve attempts for transient failures (≤1 = no retry)")
	fs.DurationVar(&f.retryBackoff, "retry-backoff", 0, "with -serve-batch, -stream or -serve-addr: base wait before the first retry, doubling per attempt")
	fs.DurationVar(&f.deadline, "deadline", 0, "with -serve-batch, -stream or -serve-addr: per-request deadline (0 = none)")
	fs.DurationVar(&f.degradeBelow, "degrade-below", 0, "with -serve-batch, -stream or -serve-addr: fall back to the sequential algorithm when remaining deadline is below this")
	fs.StringVar(&f.chaosSpec, "chaos", "", "with -serve-batch, -stream or -serve-addr: fault-injection rules `point:fault:permille[:latency[:maxcount]],...`")
	fs.Uint64Var(&f.chaosSeed, "chaos-seed", 1, "with -chaos: seed of the deterministic chaos schedule")
	fs.BoolVar(&f.bandedMode, "banded", false, "route distance-only work through the banded diagonal-BFS fast path (score subcommand and -serve-batch)")
	fs.IntVar(&f.bandMaxK, "band-max-k", 0, "with -banded: edit budget of the band (0 = derive from the measured crossover)")
	fs.StringVar(&f.storeDir, "store-dir", "", "with -serve-batch or -serve-addr: back the kernel cache with a persistent on-disk store in this directory (crash-safe, shared across runs)")
	fs.StringVar(&f.serveAddr, "serve-addr", "", "run the sharded HTTP serving tier on this address (e.g. :8080) until SIGINT/SIGTERM; the engine flags apply per shard")
	fs.IntVar(&f.shards, "shards", 0, "with -serve-addr: engine shard count, each ordered pair placed on one by rendezvous hashing (0 = 1)")
	fs.IntVar(&f.tenantQuota, "tenant-quota", 0, "with -serve-addr: per-tenant bound on outstanding requests across the tier (0 = unlimited)")
	return fs, f
}

func run(args []string, out io.Writer) error {
	fs, f := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -chaos-seed defaults to a nonzero seed, so whether it was given
	// comes from the parsed set, not from its value.
	chaosSeedSet := false
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "chaos-seed" {
			chaosSeedSet = true
		}
	})
	algorithm, okAlg := algorithms[f.alg]
	if !okAlg {
		return fmt.Errorf("unknown algorithm %q (want one of %s)", f.alg, algorithmNames())
	}
	if err := validateFlags(map[string]bool{
		"-serve-batch":   f.batch != "",
		"-stream":        f.streamFile != "",
		"-edit":          f.edit,
		"-trace-stages":  f.traceStages,
		"-banded":        f.bandedMode,
		"-band-max-k":    f.bandMaxK != 0,
		"-metrics":       f.metricsAddr != "",
		"-max-queue":     f.maxQueue != 0,
		"-retries":       f.retries != 0,
		"-retry-backoff": f.retryBackoff != 0,
		"-deadline":      f.deadline != 0,
		"-degrade-below": f.degradeBelow != 0,
		"-chaos":         f.chaosSpec != "",
		"-store-dir":     f.storeDir != "",
		"-serve-addr":    f.serveAddr != "",
		"-shards":        f.shards != 0,
		"-tenant-quota":  f.tenantQuota != 0,
		"-chaos-seed":    chaosSeedSet,
	}); err != nil {
		return err
	}
	if f.batch != "" || f.streamFile != "" || f.serveAddr != "" {
		opts := batchOptions{
			algorithm:    algorithm,
			workers:      f.workers,
			traceStages:  f.traceStages,
			metricsAddr:  f.metricsAddr,
			maxQueue:     f.maxQueue,
			retries:      f.retries,
			retryBackoff: f.retryBackoff,
			deadline:     f.deadline,
			degradeBelow: f.degradeBelow,
			banded:       f.bandedMode,
			bandMaxK:     f.bandMaxK,
			storeDir:     f.storeDir,
		}
		if f.chaosSpec != "" {
			rules, err := semilocal.ParseChaosSpec(f.chaosSpec)
			if err != nil {
				return fmt.Errorf("-chaos: %w", err)
			}
			opts.chaosRules = rules
			opts.chaosSeed = f.chaosSeed
		}
		if f.serveAddr != "" {
			return runServe(f.serveAddr, f.shards, f.tenantQuota, opts, out)
		}
		if f.batch != "" {
			return runBatch(f.batch, opts, out)
		}
		pattern, err := loadPattern(fs.Args(), f.aText, f.bText, f.fasta)
		if err != nil {
			return err
		}
		return runStream(f.streamFile, pattern, opts, out)
	}

	a, b, rest, err := loadInputs(fs.Args(), f.aText, f.bText, f.fasta)
	if err != nil {
		return err
	}
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand: score, windows or query")
	}

	cfg := semilocal.Config{Algorithm: algorithm, Workers: f.workers}
	sub, subArgs := rest[0], rest[1:]
	if f.bandedMode {
		if sub != "score" {
			return fmt.Errorf("-banded supports only the score subcommand (semi-local queries need the kernel), got %q", sub)
		}
		return runBandedScore(a, b, cfg, f.edit, f.bandMaxK, out)
	}
	if f.edit {
		return runEdit(a, b, cfg, sub, subArgs, out)
	}
	var rec *semilocal.StageRecorder
	if f.traceStages {
		rec = semilocal.NewStageRecorder()
	}
	k, err := semilocal.SolveObserved(a, b, cfg, rec)
	if err != nil {
		return err
	}
	if err := runKernelSub(k, a, b, algorithm, sub, subArgs, out); err != nil {
		return err
	}
	if rec != nil {
		fmt.Fprintln(out)
		rec.Snapshot().WriteBreakdown(out)
	}
	return nil
}

// flagRule constrains one flag's allowed combinations. A rule fires
// only when its flag was set: conflicts lists flags that may not appear
// alongside it, requiresAny lists flags of which at least one must.
type flagRule struct {
	flag        string
	conflicts   []string
	requiresAny []string
}

// flagRules is the single table of cross-flag constraints; every
// mutual-exclusion and dependency check of the CLI lives here instead
// of being scattered through the mode dispatch.
var flagRules = []flagRule{
	{flag: "-stream", conflicts: []string{"-serve-batch", "-edit", "-banded", "-max-queue"}},
	{flag: "-serve-addr", conflicts: []string{"-serve-batch", "-stream", "-edit", "-trace-stages", "-metrics"}},
	{flag: "-trace-stages", conflicts: []string{"-edit"}},
	{flag: "-band-max-k", requiresAny: []string{"-banded"}},
	{flag: "-max-queue", requiresAny: []string{"-serve-batch", "-serve-addr"}},
	{flag: "-metrics", requiresAny: []string{"-serve-batch", "-stream"}},
	{flag: "-retries", requiresAny: []string{"-serve-batch", "-stream", "-serve-addr"}},
	{flag: "-retry-backoff", requiresAny: []string{"-serve-batch", "-stream", "-serve-addr"}},
	{flag: "-deadline", requiresAny: []string{"-serve-batch", "-stream", "-serve-addr"}},
	{flag: "-degrade-below", requiresAny: []string{"-serve-batch", "-stream", "-serve-addr"}},
	{flag: "-chaos", requiresAny: []string{"-serve-batch", "-stream", "-serve-addr"}},
	{flag: "-store-dir", requiresAny: []string{"-serve-batch", "-serve-addr"}},
	{flag: "-shards", requiresAny: []string{"-serve-addr"}},
	{flag: "-tenant-quota", requiresAny: []string{"-serve-addr"}},
	{flag: "-chaos-seed", requiresAny: []string{"-chaos"}},
}

// validateFlags evaluates the rule table against the set of flags the
// user provided (flag name → was set).
func validateFlags(set map[string]bool) error {
	for _, r := range flagRules {
		if !set[r.flag] {
			continue
		}
		for _, c := range r.conflicts {
			if set[c] {
				return fmt.Errorf("%s cannot be combined with %s", r.flag, c)
			}
		}
		if len(r.requiresAny) > 0 {
			ok := false
			for _, q := range r.requiresAny {
				if set[q] {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("%s requires %s", r.flag, strings.Join(r.requiresAny, " or "))
			}
		}
	}
	return nil
}

// runBandedScore answers the single-shot score subcommand through the
// banded diagonal BFS: exact when the inputs fit the band, with an
// announced fallback to the ordinary kernel (or blow-up kernel, under
// -edit) when they do not.
func runBandedScore(a, b []byte, cfg semilocal.Config, edit bool, maxK int, out io.Writer) error {
	if edit {
		if d, ok := semilocal.BandedEditDistance(a, b, maxK); ok {
			fmt.Fprintf(out, "edit distance = %d  (m=%d, n=%d, algorithm=banded)\n", d, len(a), len(b))
			return nil
		}
		fmt.Fprintf(out, "# band exceeded (max-k=%s); falling back to kernel construction\n", bandBudgetLabel(maxK))
		return runEdit(a, b, cfg, "score", nil, out)
	}
	maxD := 0
	if maxK > 0 {
		maxD = 2 * maxK // a unit-cost edit budget of k is an indel budget of 2k
	}
	if s, ok := semilocal.BandedLCS(a, b, maxD); ok {
		fmt.Fprintf(out, "LCS = %d  (m=%d, n=%d, algorithm=banded)\n", s, len(a), len(b))
		return nil
	}
	fmt.Fprintf(out, "# band exceeded (max-k=%s); falling back to kernel construction\n", bandBudgetLabel(maxK))
	k, err := semilocal.Solve(a, b, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "LCS = %d  (m=%d, n=%d, algorithm=%v)\n", k.Score(), len(a), len(b), cfg.Algorithm)
	return nil
}

func bandBudgetLabel(maxK int) string {
	if maxK <= 0 {
		return "auto"
	}
	return strconv.Itoa(maxK)
}

// runKernelSub answers one LCS-mode subcommand on a solved kernel.
func runKernelSub(k *semilocal.Kernel, a, b []byte, algorithm semilocal.Algorithm, sub string, subArgs []string, out io.Writer) error {
	switch sub {
	case "score":
		fmt.Fprintf(out, "LCS = %d  (m=%d, n=%d, algorithm=%v)\n", k.Score(), len(a), len(b), algorithm)
		return nil
	case "windows":
		req, top, err := parseWindowsSub(subArgs, len(a))
		if err != nil {
			return err
		}
		res := semilocal.Answer(k, req)
		if res.Err != nil {
			return res.Err
		}
		best := bestWindows(res.Windows, top, func(x, y int) bool { return x > y })
		fmt.Fprintf(out, "best %d windows of width %d (of %d):\n", len(best), req.Width, len(res.Windows))
		for _, l := range best {
			score := res.Windows[l]
			fmt.Fprintf(out, "  b[%d:%d)  LCS=%d  (%.1f%% of window)\n",
				l, l+req.Width, score, 100*float64(score)/float64(req.Width))
		}
		return nil
	case "query":
		req, err := parseQuerySub(subArgs, len(a), len(b))
		if err != nil {
			return err
		}
		res := semilocal.Answer(k, req)
		if res.Err != nil {
			return res.Err
		}
		fmt.Fprintf(out, quadrantFormats[req.Kind], "LCS", req.From, req.To, res.Score)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

// parseWindowsSub parses the windows subcommand's flags, shared by the
// LCS and -edit modes: the window width (default m = len(a)) as an
// unvalidated windows request, and how many best windows to print.
func parseWindowsSub(subArgs []string, m int) (req semilocal.BatchRequest, top int, err error) {
	wfs := flag.NewFlagSet("windows", flag.ContinueOnError)
	width := wfs.Int("width", 0, "window width (default len(a))")
	topN := wfs.Int("top", 3, "how many best windows to print")
	if err := wfs.Parse(subArgs); err != nil {
		return req, 0, err
	}
	if *topN < 0 {
		return req, 0, fmt.Errorf("windows: -top %d is negative", *topN)
	}
	req = semilocal.BatchRequest{Kind: semilocal.QueryWindows, Width: *width}
	if req.Width == 0 {
		req.Width = m
	}
	return req, *topN, nil
}

// bestWindows returns the left edges of the top best entries of a
// window sweep, best first by better.
func bestWindows(sweep []int, top int, better func(x, y int) bool) []int {
	ls := make([]int, len(sweep))
	for l := range ls {
		ls[l] = l
	}
	sort.Slice(ls, func(i, j int) bool { return better(sweep[ls[i]], sweep[ls[j]]) })
	return ls[:min(top, len(ls))]
}

// quadrantFormats renders the query subcommand's answer per quadrant
// kind; %s names the measure ("LCS" or "ed").
var quadrantFormats = map[semilocal.QueryKind]string{
	semilocal.QueryStringSubstring: "%s(a, b[%d:%d)) = %d\n",
	semilocal.QuerySubstringString: "%s(a[%d:%d), b) = %d\n",
	semilocal.QuerySuffixPrefix:    "%s(a[%d:], b[:%d]) = %d\n",
	semilocal.QueryPrefixSuffix:    "%s(a[:%d], b[%d:]) = %d\n",
}

// parseQuerySub parses the query subcommand's flags, shared by the LCS
// and -edit modes, into an unvalidated quadrant request on strings of
// lengths m and n; -to defaults to the end of the queried string.
func parseQuerySub(subArgs []string, m, n int) (semilocal.BatchRequest, error) {
	qfs := flag.NewFlagSet("query", flag.ContinueOnError)
	kindName := qfs.String("kind", "string-substring", "quadrant kind")
	from := qfs.Int("from", 0, "range start")
	to := qfs.Int("to", -1, "range end (exclusive)")
	if err := qfs.Parse(subArgs); err != nil {
		return semilocal.BatchRequest{}, err
	}
	kind, err := semilocal.ParseQueryKind(*kindName)
	if _, quadrant := quadrantFormats[kind]; err != nil || !quadrant {
		return semilocal.BatchRequest{}, fmt.Errorf("unknown query kind %q", *kindName)
	}
	if *to < 0 {
		*to = n
		if kind == semilocal.QuerySubstringString {
			*to = m
		}
	}
	return semilocal.BatchRequest{Kind: kind, From: *from, To: *to}, nil
}

func loadInputs(args []string, aText, bText string, fasta bool) (a, b []byte, rest []string, err error) {
	readOne := func(path string) ([]byte, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if fasta {
			gs, err := dataset.ReadFASTA(strings.NewReader(string(data)))
			if err != nil {
				return nil, err
			}
			if len(gs) == 0 {
				return nil, fmt.Errorf("%s: no FASTA records", path)
			}
			return gs[0].Seq, nil
		}
		return []byte(strings.TrimRight(string(data), "\n")), nil
	}
	rest = args
	if aText != "" {
		a = []byte(aText)
	} else {
		if len(rest) == 0 {
			return nil, nil, nil, fmt.Errorf("missing input file for a")
		}
		if a, err = readOne(rest[0]); err != nil {
			return nil, nil, nil, err
		}
		rest = rest[1:]
	}
	if bText != "" {
		b = []byte(bText)
	} else {
		if len(rest) == 0 {
			return nil, nil, nil, fmt.Errorf("missing input file for b")
		}
		if b, err = readOne(rest[0]); err != nil {
			return nil, nil, nil, err
		}
		rest = rest[1:]
	}
	return a, b, rest, nil
}

// parseBatchLine turns one request line of a -serve-batch file into an
// engine request: `<a> <b> <kind> [args]`, kinds and arguments exactly
// as in the query subcommand plus `score`, `windows <width>` and
// `best-window <width>`.
func parseBatchLine(line string) (semilocal.BatchRequest, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return semilocal.BatchRequest{}, fmt.Errorf("want `<a> <b> <kind> [args]`, got %q", line)
	}
	req, err := parseQueryFields(fields[2:])
	if err != nil {
		return semilocal.BatchRequest{}, err
	}
	req.A, req.B = []byte(fields[0]), []byte(fields[1])
	return req, nil
}

// parseQueryFields parses `<kind> [args]`, the query part of a
// -serve-batch request line and of a -stream op line: the quadrant
// kinds with their two arguments, `score`, `windows <width>` and
// `best-window <width>`.
func parseQueryFields(fields []string) (semilocal.BatchRequest, error) {
	kind, err := semilocal.ParseQueryKind(fields[0])
	if err != nil {
		return semilocal.BatchRequest{}, err
	}
	req := semilocal.BatchRequest{Kind: kind}
	argv := fields[1:]
	wantArgs := 2
	if kind == semilocal.QueryScore {
		wantArgs = 0
	} else if kind == semilocal.QueryWindows || kind == semilocal.QueryBestWindow {
		wantArgs = 1
	}
	if len(argv) != wantArgs {
		return semilocal.BatchRequest{}, fmt.Errorf("%s wants %d arguments, got %d", kind, wantArgs, len(argv))
	}
	nums := make([]int, len(argv))
	for i, s := range argv {
		if nums[i], err = strconv.Atoi(s); err != nil {
			return semilocal.BatchRequest{}, err
		}
	}
	switch wantArgs {
	case 1:
		req.Width = nums[0]
	case 2:
		req.From, req.To = nums[0], nums[1]
	}
	return req, nil
}

// batchOptions carries the -serve-batch mode's knobs: the solve
// configuration, the observability sinks, and the hardening /
// fault-injection settings that only make sense with an engine.
type batchOptions struct {
	algorithm    semilocal.Algorithm
	workers      int
	traceStages  bool
	metricsAddr  string
	maxQueue     int
	retries      int
	retryBackoff time.Duration
	deadline     time.Duration
	degradeBelow time.Duration
	chaosRules   []semilocal.ChaosRule
	chaosSeed    uint64
	banded       bool
	bandMaxK     int
	storeDir     string
}

// recorder returns the stage recorder the batch and stream modes need:
// one only when -trace-stages or -metrics asks for it.
func (o batchOptions) recorder() *semilocal.StageRecorder {
	if o.traceStages || o.metricsAddr != "" {
		return semilocal.NewStageRecorder()
	}
	return nil
}

// engineOptions builds the engine options of every engine mode
// (-serve-batch, -stream, -serve-addr) from the flags: -workers sizes
// the engine's worker pool, and the chaos injector (built after rec, so
// injected faults count in -metrics) and the -store-dir kernel store
// are opened here. The returned release closes the store; call it only
// after the engine or server is closed, which drains pending appends.
func (o batchOptions) engineOptions(rec *semilocal.StageRecorder) (semilocal.EngineOptions, func(), error) {
	var inj *semilocal.ChaosInjector
	if len(o.chaosRules) > 0 {
		var err error
		inj, err = semilocal.NewChaosInjector(semilocal.ChaosConfig{
			Seed: o.chaosSeed, Rules: o.chaosRules, Obs: rec,
		})
		if err != nil {
			return semilocal.EngineOptions{}, nil, fmt.Errorf("-chaos: %w", err)
		}
	}
	release := func() {}
	var kstore *semilocal.KernelStore
	if o.storeDir != "" {
		var err error
		kstore, err = semilocal.OpenStore(o.storeDir, semilocal.StoreConfig{})
		if err != nil {
			return semilocal.EngineOptions{}, nil, err
		}
		release = func() { kstore.Close() }
	}
	return semilocal.EngineOptions{
		Config:   semilocal.Config{Algorithm: o.algorithm},
		Workers:  o.workers,
		Obs:      rec,
		MaxQueue: o.maxQueue,
		Retry: semilocal.RetryPolicy{
			MaxAttempts: o.retries,
			BaseBackoff: o.retryBackoff,
		},
		Deadline:     o.deadline,
		DegradeBelow: o.degradeBelow,
		Chaos:        inj,
		Banded:       semilocal.BandedConfig{Enabled: o.banded, MaxK: o.bandMaxK},
		Store:        kstore,
	}, release, nil
}

// runBatch answers every request in the file through one engine, then
// prints the engine's cache counters. With -workers 1 the batch is
// processed sequentially in file order, so the output (including the
// hit/miss counters) is fully deterministic — including which requests
// are shed under -max-queue, since admission happens at batch arrival.
// traceStages appends the stage breakdown table; metricsAddr serves
// the observability endpoints while the batch runs ("-" prints one
// exposition after it).
func runBatch(path string, opts batchOptions, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var reqs []semilocal.BatchRequest
	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		req, err := parseBatchLine(line)
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, lineno, err)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return err
	}

	rec := opts.recorder()
	eopts, release, err := opts.engineOptions(rec)
	if err != nil {
		return err
	}
	defer release()
	engine := semilocal.NewEngine(eopts)
	defer engine.Close()
	if opts.metricsAddr != "" && opts.metricsAddr != "-" {
		ms, err := startMetricsServer(opts.metricsAddr, rec, engine)
		if err != nil {
			return err
		}
		defer ms.stop()
		fmt.Fprintf(out, "# metrics: serving on http://%s/metrics\n", ms.addr())
	}
	results := engine.BatchSolve(context.Background(), reqs)
	for i, res := range results {
		printResult(out, "#"+strconv.Itoa(i), reqs[i].Kind, reqs[i].Width, res)
	}
	fmt.Fprintf(out, "# engine: %s\n", engine.StatsLine())
	if opts.traceStages {
		rec.Snapshot().WriteBreakdown(out)
	}
	if opts.metricsAddr == "-" {
		writeMetricsTo(out, rec, engine)
	}
	return nil
}

// printResult renders one answered request as a numbered output line
// (shared by the -serve-batch and -stream modes).
func printResult(out io.Writer, label string, kind semilocal.QueryKind, width int, res semilocal.BatchResult) {
	switch {
	case res.Err != nil:
		fmt.Fprintf(out, "%s %s: error: %v\n", label, kind, res.Err)
	case kind == semilocal.QueryWindows:
		fmt.Fprintf(out, "%s %s(%d) =%s\n", label, kind, width, joinInts(res.Windows))
	case kind == semilocal.QueryBestWindow:
		fmt.Fprintf(out, "%s %s(%d) = b[%d:%d) score %d\n",
			label, kind, width, res.From, res.From+width, res.Score)
	default:
		fmt.Fprintf(out, "%s %s = %d\n", label, kind, res.Score)
	}
}

// loadPattern resolves the -stream mode's fixed pattern: -a-text, or a
// single pattern file (honoring -fasta). The window side has no static
// input — it arrives through the op script — so -b-text is rejected.
func loadPattern(args []string, aText, bText string, fasta bool) ([]byte, error) {
	if bText != "" {
		return nil, fmt.Errorf("-b-text is meaningless with -stream (the text arrives via append ops)")
	}
	if aText != "" {
		if len(args) != 0 {
			return nil, fmt.Errorf("unexpected arguments with -stream: %v", args)
		}
		return []byte(aText), nil
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("-stream wants the pattern as -a-text or exactly one pattern file")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	if fasta {
		gs, err := dataset.ReadFASTA(strings.NewReader(string(data)))
		if err != nil {
			return nil, err
		}
		if len(gs) == 0 {
			return nil, fmt.Errorf("%s: no FASTA records", args[0])
		}
		return gs[0].Seq, nil
	}
	return []byte(strings.TrimRight(string(data), "\n")), nil
}

// streamOp is one parsed line of a -stream op script.
type streamOp struct {
	pattern []byte // non-nil: a `pattern` declaration (group mode)
	append  []byte // non-nil: append this chunk
	slide   int    // used when isSlide
	isSlide bool
	pat     int                    // query target pattern (group mode, `@<i>` prefix)
	req     semilocal.BatchRequest // otherwise: a query against the window
}

// parseStreamLine turns one op-script line into a streamOp:
// `pattern <p>` (declares an extra group pattern; must precede all
// other ops), `append <chunk>`, `slide <k>`, or `[@<i>] <kind> [args]`
// with the query kinds and argument counts of the batch format (minus
// the input pair, which is a pattern and the current window). The
// optional `@<i>` prefix addresses pattern i in group mode; without it
// a query answers against pattern 0, the -a-text pattern.
func parseStreamLine(line string) (streamOp, error) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "pattern":
		if len(fields) != 2 {
			return streamOp{}, fmt.Errorf("pattern wants exactly one whitespace-free pattern, got %q", line)
		}
		return streamOp{pattern: []byte(fields[1])}, nil
	case "append":
		if len(fields) != 2 {
			return streamOp{}, fmt.Errorf("append wants exactly one whitespace-free chunk, got %q", line)
		}
		return streamOp{append: []byte(fields[1])}, nil
	case "slide":
		if len(fields) != 2 {
			return streamOp{}, fmt.Errorf("slide wants one chunk count, got %q", line)
		}
		k, err := strconv.Atoi(fields[1])
		if err != nil {
			return streamOp{}, err
		}
		return streamOp{slide: k, isSlide: true}, nil
	}
	pat := 0
	if strings.HasPrefix(fields[0], "@") {
		p, err := strconv.Atoi(fields[0][1:])
		if err != nil || p < 0 {
			return streamOp{}, fmt.Errorf("bad pattern index %q", fields[0])
		}
		pat = p
		fields = fields[1:]
		if len(fields) == 0 {
			return streamOp{}, fmt.Errorf("pattern index without a query kind")
		}
	}
	req, err := parseQueryFields(fields)
	if err != nil {
		return streamOp{}, err
	}
	return streamOp{pat: pat, req: req}, nil
}

// runStream replays an op script against one session group opened
// through the engine, so mutations run under the engine's deadline and
// retry policy and queries hit the per-generation session cache. Ops
// run strictly in file order; a failed mutation prints its error and
// leaves the window unchanged, so the remaining ops still answer
// against a consistent generation.
//
// The -a-text pattern is pattern 0. Scripts that open with `pattern
// <p>` lines add the next indices, and the group pays each chunk's
// text-side work once across all patterns; a script without them runs
// a group of one.
func runStream(path string, pattern []byte, opts batchOptions, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var ops []streamOp
	patterns := [][]byte{pattern}
	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		op, err := parseStreamLine(line)
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, lineno, err)
		}
		if op.pattern != nil {
			if len(ops) != 0 {
				return fmt.Errorf("%s:%d: pattern declarations must precede all other ops", path, lineno)
			}
			patterns = append(patterns, op.pattern)
			continue
		}
		if op.pat >= len(patterns) {
			return fmt.Errorf("%s:%d: pattern index @%d out of range (%d patterns)", path, lineno, op.pat, len(patterns))
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return err
	}

	rec := opts.recorder()
	eopts, release, err := opts.engineOptions(rec)
	if err != nil {
		return err
	}
	defer release()
	engine := semilocal.NewEngine(eopts)
	defer engine.Close()
	if opts.metricsAddr != "" && opts.metricsAddr != "-" {
		ms, err := startMetricsServer(opts.metricsAddr, rec, engine)
		if err != nil {
			return err
		}
		defer ms.stop()
		fmt.Fprintf(out, "# metrics: serving on http://%s/metrics\n", ms.addr())
	}
	if err := replayStreamGroup(engine, patterns, ops, out); err != nil {
		return err
	}
	fmt.Fprintf(out, "# engine: %s\n", engine.StatsLine())
	if opts.traceStages {
		rec.Snapshot().WriteBreakdown(out)
	}
	if opts.metricsAddr == "-" {
		writeMetricsTo(out, rec, engine)
	}
	return nil
}

// replayStreamGroup runs the parsed ops against one session group:
// every append and slide mutates all pattern spines in lockstep and
// queries address their `@<i>` pattern. A script that declares no
// patterns runs a group of one and keeps the single-pattern output: no
// `@i` prefix, and a `# stream:` summary line instead of the sharing
// account (leaf solves actually performed vs per-pattern solves avoided
// by the shared text-side pass).
func replayStreamGroup(engine *semilocal.Engine, patterns [][]byte, ops []streamOp, out io.Writer) error {
	sg, err := engine.OpenStreamGroup(patterns)
	if err != nil {
		return err
	}
	single := len(patterns) == 1
	if !single {
		fmt.Fprintf(out, "# stream-group: %d patterns (%d distinct spines)\n",
			sg.Patterns(), sg.DistinctPatterns())
	}
	ctx := context.Background()
	for i, op := range ops {
		switch {
		case op.append != nil:
			if err := sg.Append(ctx, op.append); err != nil {
				fmt.Fprintf(out, "#%d append: error: %v\n", i, err)
				continue
			}
			fmt.Fprintf(out, "#%d append %d bytes: gen=%d window=%d leaves=%d\n",
				i, len(op.append), sg.Generation(), sg.Window(), sg.Leaves())
		case op.isSlide:
			if err := sg.Slide(ctx, op.slide); err != nil {
				fmt.Fprintf(out, "#%d slide: error: %v\n", i, err)
				continue
			}
			fmt.Fprintf(out, "#%d slide %d: gen=%d window=%d leaves=%d\n",
				i, op.slide, sg.Generation(), sg.Window(), sg.Leaves())
		default:
			label := fmt.Sprintf("#%d @%d", i, op.pat)
			if single {
				label = "#" + strconv.Itoa(i)
			}
			printResult(out, label, op.req.Kind, op.req.Width, sg.Query(op.pat, op.req))
		}
	}
	if single {
		fmt.Fprintf(out, "# stream: gen=%d leaves=%d window=%d compositions=%d\n",
			sg.Generation(), sg.Leaves(), sg.Window(), sg.Compositions())
		return nil
	}
	fmt.Fprintf(out, "# stream-group: gen=%d leaves=%d window=%d patterns=%d distinct=%d leaf_solves=%d leaf_shared=%d compositions=%d\n",
		sg.Generation(), sg.Leaves(), sg.Window(), sg.Patterns(), sg.DistinctPatterns(),
		sg.LeafSolves(), sg.LeafShares(), sg.Compositions())
	return nil
}

func joinInts(xs []int) string {
	var sb strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&sb, " %d", x)
	}
	return sb.String()
}

// runEdit handles the -edit mode: the same subcommands, measured in
// unit-cost edit distance through the blow-up kernel. Requests are
// range-checked like Answer's before any kernel method runs.
func runEdit(a, b []byte, cfg semilocal.Config, sub string, subArgs []string, out io.Writer) error {
	k, err := semilocal.SolveEdit(a, b, cfg)
	if err != nil {
		return err
	}
	switch sub {
	case "score":
		fmt.Fprintf(out, "edit distance = %d  (m=%d, n=%d)\n", k.Distance(), len(a), len(b))
		return nil
	case "windows":
		req, top, err := parseWindowsSub(subArgs, len(a))
		if err == nil {
			err = req.Validate(len(a), len(b))
		}
		if err != nil {
			return err
		}
		ds := k.WindowDistances(req.Width)
		best := bestWindows(ds, top, func(x, y int) bool { return x < y })
		fmt.Fprintf(out, "best %d windows of width %d by edit distance:\n", len(best), req.Width)
		for _, l := range best {
			fmt.Fprintf(out, "  b[%d:%d)  distance %d\n", l, l+req.Width, ds[l])
		}
		return nil
	case "query":
		req, err := parseQuerySub(subArgs, len(a), len(b))
		if err == nil {
			err = req.Validate(len(a), len(b))
		}
		if err != nil {
			return err
		}
		var d int
		switch req.Kind {
		case semilocal.QueryStringSubstring:
			d = k.SubstringDistance(req.From, req.To)
		case semilocal.QuerySubstringString:
			d = k.SubstringStringDistance(req.From, req.To)
		case semilocal.QuerySuffixPrefix:
			d = k.SuffixPrefixDistance(req.From, req.To)
		default: // semilocal.QueryPrefixSuffix
			d = k.PrefixSuffixDistance(req.From, req.To)
		}
		fmt.Fprintf(out, quadrantFormats[req.Kind], "ed", req.From, req.To, d)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}
