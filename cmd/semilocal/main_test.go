package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"semilocal"
)

func TestRunScoreInline(t *testing.T) {
	if err := run([]string{"-a-text", "ABCABBA", "-b-text", "CBABAC", "score"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestEngineOptionsFromFlags pins the one engine-options builder that
// -serve-batch, -stream and -serve-addr share: -workers sizes the
// engine's worker pool and never the solve configuration, -chaos builds
// an injector, -store-dir opens a store, and the hardening knobs carry
// over.
func TestEngineOptionsFromFlags(t *testing.T) {
	rules, err := semilocal.ParseChaosSpec("stream:error:1000:0:2")
	if err != nil {
		t.Fatal(err)
	}
	rec := semilocal.NewStageRecorder()
	opts := batchOptions{
		algorithm:  semilocal.Hybrid,
		workers:    4,
		maxQueue:   8,
		retries:    3,
		chaosRules: rules,
		chaosSeed:  7,
		banded:     true,
		storeDir:   t.TempDir(),
	}
	eo, release, err := opts.engineOptions(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if eo.Workers != 4 || eo.Config != (semilocal.Config{Algorithm: semilocal.Hybrid}) {
		t.Errorf("workers %d, config %+v: want a 4-worker pool and a sequential Hybrid config", eo.Workers, eo.Config)
	}
	if eo.Obs != rec || eo.Chaos == nil || eo.Store == nil {
		t.Errorf("obs %p (want %p), chaos %p, store %p: want all set", eo.Obs, rec, eo.Chaos, eo.Store)
	}
	if eo.MaxQueue != 8 || eo.Retry.MaxAttempts != 3 || !eo.Banded.Enabled {
		t.Errorf("hardening not carried over: %+v", eo)
	}
	bad := batchOptions{chaosRules: []semilocal.ChaosRule{{Point: rules[0].Point, Fault: rules[0].Fault, PerMille: 2000}}}
	if _, _, err := bad.engineOptions(nil); err == nil || !strings.Contains(err.Error(), "-chaos") {
		t.Errorf("invalid chaos rule: err = %v, want a -chaos error", err)
	}
}

func TestRunFiles(t *testing.T) {
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.txt")
	bPath := filepath.Join(dir, "b.txt")
	if err := os.WriteFile(aPath, []byte("GATTACA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bPath, []byte("TACGATTACA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{aPath, bPath, "score"},
		{"-alg", "hybrid", "-workers", "2", aPath, bPath, "score"},
		{aPath, bPath, "windows", "-width", "5", "-top", "2"},
		{aPath, bPath, "query", "-kind", "substring-string", "-from", "1", "-to", "6"},
		{aPath, bPath, "query", "-kind", "prefix-suffix", "-from", "3", "-to", "2"},
	} {
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

func TestRunFASTA(t *testing.T) {
	dir := t.TempDir()
	fa := filepath.Join(dir, "x.fa")
	if err := os.WriteFile(fa, []byte(">one\nACGTACGT\n>two\nGGGG\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fasta", fa, fa, "score"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                               // no inputs
		{"-a-text", "x"},                 // missing b
		{"-a-text", "x", "-b-text", "y"}, // missing subcommand
		{"-a-text", "x", "-b-text", "y", "bogus"},                  // unknown subcommand
		{"-alg", "nope", "-a-text", "x", "-b-text", "y", "score"},  // unknown algorithm
		{"-a-text", "x", "-b-text", "y", "windows", "-width", "9"}, // width too large
		{"-a-text", "x", "-b-text", "y", "query", "-kind", "nope"}, // unknown kind
		{"/nonexistent/a", "/nonexistent/b", "score"},              // unreadable file
		// Out-of-range arguments are errors, never kernel panics.
		{"-a-text", "AB", "-b-text", "CD", "query", "-kind", "string-substring", "-from", "5", "-to", "9"},
		{"-a-text", "AB", "-b-text", "CD", "query", "-kind", "suffix-prefix", "-from", "3", "-to", "1"},
		{"-edit", "-a-text", "AB", "-b-text", "CD", "query", "-from", "5", "-to", "9"},
		{"-edit", "-a-text", "AB", "-b-text", "CD", "windows", "-width", "-2"},
		{"-a-text", "AB", "-b-text", "CD", "windows", "-width", "-2"},
		{"-a-text", "AB", "-b-text", "CD", "windows", "-top", "-1"},
		{"-edit", "-a-text", "AB", "-b-text", "CD", "windows", "-top", "-1"},
		{"-a-text", "AB", "-b-text", "CD", "query", "-kind", "score"}, // not a quadrant
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunEditMode(t *testing.T) {
	for _, args := range [][]string{
		{"-edit", "-a-text", "kitten", "-b-text", "sitting", "score"},
		{"-edit", "-a-text", "kitten", "-b-text", "the sitting cat", "windows", "-top", "2"},
		{"-edit", "-a-text", "kitten", "-b-text", "sitting", "query", "-kind", "string-substring", "-from", "0", "-to", "6"},
		{"-edit", "-a-text", "kitten", "-b-text", "sitting", "query", "-kind", "suffix-prefix", "-from", "1", "-to", "4"},
	} {
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	for _, args := range [][]string{
		{"-edit", "-a-text", "x", "-b-text", "y", "bogus"},
		{"-edit", "-a-text", "x", "-b-text", "y", "windows", "-width", "5"},
		{"-edit", "-a-text", "x", "-b-text", "y", "query", "-kind", "nope"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}

// update regenerates the golden files under testdata instead of
// comparing against them: go test ./cmd/semilocal -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenCompare pins got against testdata/<name>.golden, rewriting the
// file under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output deviates from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGolden pins the exact CLI output of every subcommand and mode so
// future refactors of the query or serving layers cannot silently
// change user-visible behavior. Every invocation here is fully
// deterministic: inline inputs, sequential workers.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"score", []string{"-a-text", "ABCABBA", "-b-text", "CBABAC", "score"}},
		{"score-rowmajor", []string{"-alg", "rowmajor", "-a-text", "GATTACA", "-b-text", "TACGATTACA", "score"}},
		{"windows", []string{"-a-text", "GATTACA", "-b-text", "TACGATTACA", "windows", "-width", "5", "-top", "3"}},
		{"query-string-substring", []string{"-a-text", "GATTACA", "-b-text", "TACGATTACA", "query", "-kind", "string-substring", "-from", "2", "-to", "9"}},
		{"query-substring-string", []string{"-a-text", "GATTACA", "-b-text", "TACGATTACA", "query", "-kind", "substring-string", "-from", "1", "-to", "6"}},
		{"query-suffix-prefix", []string{"-a-text", "GATTACA", "-b-text", "TACGATTACA", "query", "-kind", "suffix-prefix", "-from", "2", "-to", "8"}},
		{"query-prefix-suffix", []string{"-a-text", "GATTACA", "-b-text", "TACGATTACA", "query", "-kind", "prefix-suffix", "-from", "3", "-to", "2"}},
		{"edit-score", []string{"-edit", "-a-text", "kitten", "-b-text", "sitting", "score"}},
		{"edit-windows", []string{"-edit", "-a-text", "kitten", "-b-text", "the sitting cat", "windows", "-top", "2"}},
		{"edit-query", []string{"-edit", "-a-text", "kitten", "-b-text", "sitting", "query", "-kind", "string-substring", "-from", "0", "-to", "6"}},
		{"score-banded", []string{"-banded", "-a-text", "ABCABBA", "-b-text", "CBABAC", "score"}},
		// A one-edit budget the inputs exceed: the CLI announces the
		// fallback and answers through the kernel.
		{"score-banded-fallback", []string{"-banded", "-band-max-k", "1", "-a-text", "ABCABBA", "-b-text", "CBABAC", "score"}},
		{"edit-score-banded", []string{"-banded", "-edit", "-a-text", "kitten", "-b-text", "sitting", "score"}},
		{"edit-score-banded-fallback", []string{"-banded", "-edit", "-band-max-k", "1", "-a-text", "kitten", "-b-text", "sitting", "score"}},
		// The engine dispatcher: answers must match serve-batch.golden
		// line for line; only the counter line gains the banded split.
		{"serve-batch-banded", []string{"-serve-batch", filepath.Join("testdata", "batch.txt"), "-banded"}},
		{"serve-batch", []string{"-serve-batch", filepath.Join("testdata", "batch.txt")}},
		// Admission at batch arrival with one sequential worker: the
		// first 3 requests are admitted, requests 3..9 shed — exactly,
		// run after run.
		{"serve-batch-shed", []string{"-serve-batch", filepath.Join("testdata", "batch.txt"), "-max-queue", "3"}},
		// A chaos error rule with a 2-firing budget plus 3 solve
		// attempts: the first solve fails twice and is retried to
		// success; answers match the fault-free golden.
		{"serve-batch-chaos", []string{"-serve-batch", filepath.Join("testdata", "batch.txt"),
			"-chaos", "solve:error:1000:0:2", "-retries", "3", "-retry-backoff", "1ms"}},
		// Streaming mode: the op script appends chunks, slides the
		// window and answers queries online; every count (generation,
		// window, leaves, compositions) is deterministic.
		{"stream", []string{"-a-text", "GATTACA", "-stream", filepath.Join("testdata", "stream.txt")}},
		// A stream fault rule with a 2-firing budget plus 3 attempts:
		// the first append fails twice, retries to success, and every
		// answer matches the fault-free stream golden.
		{"stream-chaos", []string{"-a-text", "GATTACA", "-stream", filepath.Join("testdata", "stream.txt"),
			"-chaos", "stream:error:1000:0:2", "-retries", "3", "-retry-backoff", "1ms"}},
		// Group mode: `pattern` declarations switch the op script to one
		// multi-pattern session group; appends and slides mutate every
		// spine in lockstep and the summary accounts the shared leaf
		// solves (the duplicate GATTACA shares a whole spine).
		{"stream-group", []string{"-a-text", "GATTACA", "-stream", filepath.Join("testdata", "stream-group.txt")}},
		// Faults hit whole group mutations: two injected errors retry to
		// success and every answer matches the fault-free group golden.
		{"stream-group-chaos", []string{"-a-text", "GATTACA", "-stream", filepath.Join("testdata", "stream-group.txt"),
			"-chaos", "stream:error:1000:0:2", "-retries", "3", "-retry-backoff", "1ms"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			goldenCompare(t, tc.name, buf.String())
		})
	}
}

// TestServeBatchParallelMatchesSequential re-runs the batch file with a
// parallel engine and checks that every answer line matches the
// sequential golden run (the trailing counter line is allowed to differ
// in hit/dedup split, but the sum of solves must not change).
func TestServeBatchParallelMatchesSequential(t *testing.T) {
	batch := filepath.Join("testdata", "batch.txt")
	var seq, par bytes.Buffer
	if err := run([]string{"-serve-batch", batch}, &seq); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-serve-batch", batch, "-workers", "4"}, &par); err != nil {
		t.Fatal(err)
	}
	seqLines := strings.Split(seq.String(), "\n")
	parLines := strings.Split(par.String(), "\n")
	if len(seqLines) != len(parLines) {
		t.Fatalf("line count differs: %d vs %d", len(seqLines), len(parLines))
	}
	for i := range seqLines {
		if strings.HasPrefix(seqLines[i], "# engine:") {
			continue
		}
		if seqLines[i] != parLines[i] {
			t.Errorf("line %d differs:\nseq: %s\npar: %s", i, seqLines[i], parLines[i])
		}
	}
}

// TestServeBatchErrors covers the batch-mode error paths: missing file,
// malformed lines, and unknown kinds.
func TestServeBatchErrors(t *testing.T) {
	writeBatch := func(content string) string {
		path := filepath.Join(t.TempDir(), "batch.txt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]string{
		"too few fields": "ABC\n",
		"unknown kind":   "ABC CBA frobnicate\n",
		"missing args":   "ABC CBA string-substring 1\n",
		"non-numeric":    "ABC CBA string-substring one 5\n",
		"extra args":     "ABC CBA score 3\n",
	}
	for name, content := range cases {
		if err := run([]string{"-serve-batch", writeBatch(content)}, io.Discard); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := run([]string{"-serve-batch", "/nonexistent/batch.txt"}, io.Discard); err == nil {
		t.Error("missing batch file accepted")
	}
	// Out-of-range query arguments are per-request errors, not run errors.
	var buf bytes.Buffer
	if err := run([]string{"-serve-batch", writeBatch("ABC CBA string-substring 0 99\n")}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "error:") {
		t.Errorf("out-of-range request did not surface an error line:\n%s", buf.String())
	}
}

// TestHardeningFlagsRequireServeBatch: the serving knobs are engine
// configuration; outside -serve-batch they are a usage error, not a
// silent no-op.
func TestHardeningFlagsRequireServeBatch(t *testing.T) {
	base := []string{"-a-text", "ABC", "-b-text", "CBA"}
	for _, extra := range [][]string{
		{"-max-queue", "3"},
		{"-retries", "2"},
		{"-retry-backoff", "1ms"},
		{"-deadline", "1s"},
		{"-degrade-below", "1ms"},
		{"-chaos", "solve:latency:10:1ms"},
	} {
		args := append(append([]string{}, extra...), append(base, "score")...)
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want 'requires -serve-batch' error", args)
		}
	}
	// A malformed chaos spec is rejected before the batch file is read.
	if err := run([]string{"-serve-batch", "/nonexistent", "-chaos", "bogus"}, io.Discard); err == nil {
		t.Error("malformed -chaos spec accepted")
	}
}

// TestFlagValidationTable drives the consolidated cross-flag rule
// table: every mutual exclusion and dependency must reject with a
// message naming the offending flag, before any input file is touched
// (the batch/stream paths here point at nonexistent files on purpose).
func TestFlagValidationTable(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"stream+serve-batch", []string{"-serve-batch", "/nope", "-stream", "/nope"}, "-stream cannot be combined with -serve-batch"},
		{"stream+edit", []string{"-edit", "-a-text", "AB", "-stream", "/nope"}, "-stream cannot be combined with -edit"},
		{"stream+banded", []string{"-banded", "-a-text", "AB", "-stream", "/nope"}, "-stream cannot be combined with -banded"},
		{"stream+max-queue", []string{"-max-queue", "3", "-a-text", "AB", "-stream", "/nope"}, "cannot be combined"},
		{"trace-stages+edit", []string{"-trace-stages", "-edit", "-a-text", "AB", "-b-text", "BA", "score"}, "-trace-stages cannot be combined with -edit"},
		{"band-max-k alone", []string{"-band-max-k", "5", "-a-text", "AB", "-b-text", "BA", "score"}, "-band-max-k requires -banded"},
		{"max-queue alone", []string{"-max-queue", "3", "-a-text", "AB", "-b-text", "BA", "score"}, "-max-queue requires -serve-batch"},
		{"metrics alone", []string{"-metrics", "-", "-a-text", "AB", "-b-text", "BA", "score"}, "-metrics requires -serve-batch or -stream"},
		{"retries alone", []string{"-retries", "2", "-a-text", "AB", "-b-text", "BA", "score"}, "requires -serve-batch or -stream"},
		{"chaos alone", []string{"-chaos", "solve:latency:10:1ms", "-a-text", "AB", "-b-text", "BA", "score"}, "requires -serve-batch or -stream"},
		{"store-dir alone", []string{"-store-dir", "/nope", "-a-text", "AB", "-b-text", "BA", "score"}, "-store-dir requires -serve-batch"},
		{"store-dir+stream", []string{"-store-dir", "/nope", "-a-text", "AB", "-stream", "/nope"}, "-store-dir requires -serve-batch"},
		{"chaos-seed alone", []string{"-chaos-seed", "5", "-a-text", "AB", "-b-text", "BA", "score"}, "-chaos-seed requires -chaos"},
		{"chaos-seed without chaos", []string{"-serve-batch", "/nope", "-chaos-seed", "5"}, "-chaos-seed requires -chaos"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %q, want it to contain %q", tc.args, err, tc.wantErr)
			}
		})
	}
	// Valid combinations the table must NOT reject.
	for _, args := range [][]string{
		{"-banded", "-a-text", "ABCABBA", "-b-text", "CBABAC", "score"},
		{"-banded", "-band-max-k", "64", "-a-text", "ABCABBA", "-b-text", "CBABAC", "score"},
		{"-banded", "-edit", "-a-text", "kitten", "-b-text", "sitting", "score"},
		{"-serve-batch", filepath.Join("testdata", "batch.txt"), "-banded", "-band-max-k", "16"},
		{"-serve-batch", filepath.Join("testdata", "batch.txt"), "-chaos", "solve:latency:10:1ms", "-chaos-seed", "5"},
	} {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	// -banded is distance-only: the semi-local subcommands need the
	// kernel and must reject it at dispatch.
	for _, sub := range [][]string{
		{"-banded", "-a-text", "GATTACA", "-b-text", "TACGATTACA", "windows", "-width", "5"},
		{"-banded", "-a-text", "GATTACA", "-b-text", "TACGATTACA", "query", "-kind", "string-substring"},
	} {
		err := run(sub, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-banded supports only the score subcommand") {
			t.Errorf("run(%v) = %v, want banded-subcommand error", sub, err)
		}
	}
}

// TestFlagUsageNamesRequiredModes keeps the help text honest: a flag
// that flagRules allows only alongside some modes must name every one
// of them in its usage string.
func TestFlagUsageNamesRequiredModes(t *testing.T) {
	fs, _ := newFlagSet()
	for _, r := range flagRules {
		if len(r.requiresAny) == 0 {
			continue
		}
		fl := fs.Lookup(strings.TrimPrefix(r.flag, "-"))
		if fl == nil {
			t.Errorf("flagRules names %s, which is not a flag", r.flag)
			continue
		}
		words := strings.FieldsFunc(fl.Usage, func(c rune) bool { return c == ' ' || c == ',' || c == ':' })
		for _, mode := range r.requiresAny {
			if !slices.Contains(words, mode) {
				t.Errorf("%s usage %q does not name %s, which flagRules accepts", r.flag, fl.Usage, mode)
			}
		}
	}
}

// TestServeBatchBandedMatchesPlain is the CLI-level metamorphic check:
// enabling the dispatcher changes routing and counters, never answers.
func TestServeBatchBandedMatchesPlain(t *testing.T) {
	batch := filepath.Join("testdata", "batch.txt")
	var plain, banded bytes.Buffer
	if err := run([]string{"-serve-batch", batch}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-serve-batch", batch, "-banded"}, &banded); err != nil {
		t.Fatal(err)
	}
	pl := strings.Split(plain.String(), "\n")
	bl := strings.Split(banded.String(), "\n")
	if len(pl) != len(bl) {
		t.Fatalf("line count differs: %d vs %d", len(pl), len(bl))
	}
	for i := range pl {
		if strings.HasPrefix(pl[i], "# engine:") {
			if !strings.Contains(bl[i], "requests_banded=") {
				t.Errorf("banded run's counter line lacks requests_banded: %s", bl[i])
			}
			continue
		}
		if pl[i] != bl[i] {
			t.Errorf("line %d differs under -banded:\nplain:  %s\nbanded: %s", i, pl[i], bl[i])
		}
	}
}

// TestStreamModeErrors covers the -stream mode's usage and script
// error paths.
func TestStreamModeErrors(t *testing.T) {
	writeScript := func(content string) string {
		path := filepath.Join(t.TempDir(), "ops.txt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ok := writeScript("append AB\nscore\n")
	cases := map[string][]string{
		"with -serve-batch": {"-serve-batch", "x.txt", "-stream", ok},
		"with -edit":        {"-edit", "-a-text", "AB", "-stream", ok},
		"with -max-queue":   {"-max-queue", "3", "-a-text", "AB", "-stream", ok},
		"with -b-text":      {"-a-text", "AB", "-b-text", "CD", "-stream", ok},
		"no pattern":        {"-stream", ok},
		"extra args":        {"-a-text", "AB", "-stream", ok, "leftover"},
		"missing script":    {"-a-text", "AB", "-stream", "/nonexistent/ops.txt"},
		"bad append arity":  {"-a-text", "AB", "-stream", writeScript("append\n")},
		"bad slide arg":     {"-a-text", "AB", "-stream", writeScript("slide two\n")},
		"unknown op":        {"-a-text", "AB", "-stream", writeScript("frobnicate 1\n")},
		"bad query arity":   {"-a-text", "AB", "-stream", writeScript("string-substring 1\n")},
		"non-numeric query": {"-a-text", "AB", "-stream", writeScript("windows wide\n")},
		// Group-mode script errors: declarations must lead the script,
		// carry exactly one pattern, and query indices must resolve.
		"pattern after op":     {"-a-text", "AB", "-stream", writeScript("append AB\npattern CD\n")},
		"bad pattern arity":    {"-a-text", "AB", "-stream", writeScript("pattern\n")},
		"pattern out of range": {"-a-text", "AB", "-stream", writeScript("pattern CD\n@5 score\n")},
		"bad pattern index":    {"-a-text", "AB", "-stream", writeScript("pattern CD\n@x score\n")},
		"index without kind":   {"-a-text", "AB", "-stream", writeScript("pattern CD\n@1\n")},
	}
	for name, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: run(%v) succeeded, want error", name, args)
		}
	}
	// Mutation errors are per-op output lines, not run errors: sliding
	// more chunks than the window holds reports and continues.
	var buf bytes.Buffer
	if err := run([]string{"-a-text", "AB", "-stream", writeScript("append AB\nslide 5\nscore\n")}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "slide: error:") || !strings.Contains(buf.String(), "#2 score = 2") {
		t.Errorf("failed slide must report and keep serving:\n%s", buf.String())
	}
}

// TestStreamModeMatchesBatchEngine replays the stream script and
// checks the final window's score against a direct solve — the CLI
// path end to end, not just the library.
func TestStreamModeMatchesBatchEngine(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-a-text", "GATTACA", "-stream", filepath.Join("testdata", "stream.txt")}, &buf); err != nil {
		t.Fatal(err)
	}
	// Final window after the script: GATT+ACAGATTACA, slide 1 → ACAGATTACA, +TACA.
	var direct bytes.Buffer
	if err := run([]string{"-a-text", "GATTACA", "-b-text", "ACAGATTACATACA", "score"}, &direct); err != nil {
		t.Fatal(err)
	}
	want := strings.TrimPrefix(strings.Split(direct.String(), " ")[2], "")
	if !strings.Contains(buf.String(), "#9 score = "+want) {
		t.Errorf("stream's final score must match the direct solve (want %s):\n%s", want, buf.String())
	}
}

// TestServeBatchDeadlineAndDegrade smoke-tests the remaining batch
// knobs end to end: a generous deadline with degradation on answers
// identically to the plain run.
func TestServeBatchDeadlineAndDegrade(t *testing.T) {
	batch := filepath.Join("testdata", "batch.txt")
	var plain, hardened bytes.Buffer
	if err := run([]string{"-serve-batch", batch}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-serve-batch", batch,
		"-alg", "grid", "-deadline", "10s", "-degrade-below", "1h"}, &hardened); err != nil {
		t.Fatal(err)
	}
	pl := strings.Split(plain.String(), "\n")
	hl := strings.Split(hardened.String(), "\n")
	if len(pl) != len(hl) {
		t.Fatalf("line count differs: %d vs %d", len(pl), len(hl))
	}
	degradedSeen := false
	for i := range pl {
		if strings.HasPrefix(pl[i], "# engine:") {
			// Every valid request (9 of 10) degrades; the invalid one
			// fails validation before the degradation check.
			degradedSeen = strings.Contains(hl[i], "requests_degraded=9")
			continue
		}
		if pl[i] != hl[i] {
			t.Errorf("line %d differs under degradation:\nplain:    %s\nhardened: %s", i, pl[i], hl[i])
		}
	}
	if !degradedSeen {
		t.Errorf("degraded run did not report requests_degraded=2:\n%s", hardened.String())
	}
}

// TestServeBatchStoreWarmRestart is the end-to-end restart story: two
// CLI invocations share a -store-dir; the second one answers every
// request identically to a store-less run while reporting store hits —
// the kernels came off disk, not from fresh solves.
func TestServeBatchStoreWarmRestart(t *testing.T) {
	batch := filepath.Join("testdata", "batch.txt")
	dir := t.TempDir()
	var plain, cold, warm bytes.Buffer
	if err := run([]string{"-serve-batch", batch}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-serve-batch", batch, "-store-dir", dir}, &cold); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-serve-batch", batch, "-store-dir", dir}, &warm); err != nil {
		t.Fatal(err)
	}
	pl := strings.Split(plain.String(), "\n")
	for name, other := range map[string][]string{
		"cold": strings.Split(cold.String(), "\n"),
		"warm": strings.Split(warm.String(), "\n"),
	} {
		if len(pl) != len(other) {
			t.Fatalf("%s run line count differs: %d vs %d", name, len(pl), len(other))
		}
		for i := range pl {
			if strings.HasPrefix(pl[i], "# engine:") {
				continue // counters legitimately differ with a store
			}
			if pl[i] != other[i] {
				t.Errorf("%s run line %d differs:\nplain: %s\nstore: %s", name, i, pl[i], other[i])
			}
		}
	}
	// batch.txt crosses 2 solvable unique pairs (the out-of-range
	// request fails validation before any solve); the warm run must
	// read both back instead of solving.
	warmStats := ""
	for _, line := range strings.Split(warm.String(), "\n") {
		if strings.HasPrefix(line, "# engine:") {
			warmStats = line
		}
	}
	if !strings.Contains(warmStats, "store_hits=2") || !strings.Contains(warmStats, "store_misses=0") {
		t.Errorf("warm run did not serve from the store: %s", warmStats)
	}
	coldStats := ""
	for _, line := range strings.Split(cold.String(), "\n") {
		if strings.HasPrefix(line, "# engine:") {
			coldStats = line
		}
	}
	if !strings.Contains(coldStats, "store_hits=0") || !strings.Contains(coldStats, "store_misses=2") {
		t.Errorf("cold run counters off: %s", coldStats)
	}
}
