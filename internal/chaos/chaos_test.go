package chaos

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"semilocal/internal/obs"
)

// update regenerates the golden schedule under testdata instead of
// comparing against it: go test ./internal/chaos -run Replay -update
var update = flag.Bool("update", false, "rewrite golden files")

func mustNew(t *testing.T, cfg Config) *Injector {
	t.Helper()
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// driveFixed consults the injector with a fixed single-threaded
// arrival pattern: round-robin over every point, n rounds.
func driveFixed(in *Injector, rounds int) []Event {
	for i := 0; i < rounds; i++ {
		for p := Point(0); p < NumPoints; p++ {
			in.At(p)
		}
	}
	return in.Schedule()
}

var replayRules = []Rule{
	{Point: PointSolveStart, Fault: FaultError, PerMille: 200},
	{Point: PointSolveStart, Fault: FaultLatency, PerMille: 300, Latency: 0},
	{Point: PointSolveFinish, Fault: FaultError, PerMille: 100},
	{Point: PointAcquire, Fault: FaultCancel, PerMille: 150},
	{Point: PointAcquire, Fault: FaultEvict, PerMille: 50},
	{Point: PointPublish, Fault: FaultEvict, PerMille: 250},
	{Point: PointQuery, Fault: FaultLatency, PerMille: 100, Latency: 0},
	{Point: PointWorker, Fault: FaultStall, PerMille: 400, Latency: 0, MaxCount: 10},
}

// TestReplayDeterministic: the same seed and rules produce the same
// injection schedule, run after run; a different seed produces a
// different one (the faults genuinely depend on the seed).
func TestReplayDeterministic(t *testing.T) {
	one := driveFixed(mustNew(t, Config{Seed: 42, Rules: replayRules, Record: true}), 50)
	two := driveFixed(mustNew(t, Config{Seed: 42, Rules: replayRules, Record: true}), 50)
	if len(one) == 0 {
		t.Fatal("seed 42 injected nothing; rules or hash broken")
	}
	if fmt.Sprint(one) != fmt.Sprint(two) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", one, two)
	}
	other := driveFixed(mustNew(t, Config{Seed: 43, Rules: replayRules, Record: true}), 50)
	if fmt.Sprint(one) == fmt.Sprint(other) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestReplayGolden pins the exact schedule of seed 42 over the fixed
// drive in a golden file, so any change to the decision function (the
// hash, the rule ordering, the budget handling) is a visible diff
// rather than a silent reshuffle of every chaos test in the suite.
func TestReplayGolden(t *testing.T) {
	events := driveFixed(mustNew(t, Config{Seed: 42, Rules: replayRules, Record: true}), 50)
	var sb strings.Builder
	fmt.Fprintf(&sb, "# chaos schedule: seed=42 rounds=50 rules=%d\n", len(replayRules))
	for _, e := range events {
		fmt.Fprintf(&sb, "%s\n", e)
	}
	got := sb.String()

	path := filepath.Join("testdata", "schedule.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("schedule deviates from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestNilInjectorIsInert: every method of a nil injector is a no-op —
// and costs zero allocations, the contract that lets the serving hot
// paths consult it unconditionally.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if d := in.At(PointSolveStart); d.Fault != FaultNone {
		t.Fatalf("nil injector injected %v", d)
	}
	if in.Fired() != 0 || in.Arrivals(PointSolveStart) != 0 || in.Schedule() != nil {
		t.Fatal("nil injector accumulated state")
	}
}

// TestMaxCountBudget: a rule with MaxCount fires at most that many
// times, even when consulted concurrently.
func TestMaxCountBudget(t *testing.T) {
	in := mustNew(t, Config{Seed: 7, Rules: []Rule{
		{Point: PointSolveStart, Fault: FaultError, PerMille: 1000, MaxCount: 5},
	}})
	var wg sync.WaitGroup
	var fired atomic64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if in.At(PointSolveStart).Fault == FaultError {
					fired.add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := fired.load(); got != 5 {
		t.Fatalf("rule fired %d times, want exactly 5", got)
	}
	if in.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", in.Fired())
	}
	if in.Arrivals(PointSolveStart) != 800 {
		t.Fatalf("Arrivals = %d, want 800", in.Arrivals(PointSolveStart))
	}
}

// TestProbabilityRoughlyHolds: over many arrivals, a 250‰ rule fires
// about a quarter of the time — the hash is not obviously biased.
func TestProbabilityRoughlyHolds(t *testing.T) {
	in := mustNew(t, Config{Seed: 99, Rules: []Rule{
		{Point: PointQuery, Fault: FaultLatency, PerMille: 250},
	}})
	const n = 20000
	fired := 0
	for i := 0; i < n; i++ {
		if in.At(PointQuery).Fault != FaultNone {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("250‰ rule fired %.3f of arrivals", frac)
	}
}

// TestObsCounterWiring: every fired injection bumps
// obs.CounterFaultsInjected on the attached recorder.
func TestObsCounterWiring(t *testing.T) {
	rec := obs.New()
	in := mustNew(t, Config{Seed: 1, Obs: rec, Rules: []Rule{
		{Point: PointWorker, Fault: FaultStall, PerMille: 1000, MaxCount: 3},
	}})
	for i := 0; i < 10; i++ {
		in.At(PointWorker)
	}
	if got := rec.Counter(obs.CounterFaultsInjected); got != 3 {
		t.Fatalf("obs faults_injected = %d, want 3", got)
	}
}

// TestInjectedErrorContract: injected errors match ErrInjected through
// errors.Is, are transient, and name their point.
func TestInjectedErrorContract(t *testing.T) {
	err := Injected(PointSolveFinish)
	if !errors.Is(err, ErrInjected) {
		t.Fatal("injected error does not match ErrInjected")
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Fatal("injected error is not transient")
	}
	if !strings.Contains(err.Error(), "solve-finish") {
		t.Fatalf("error %q does not name its point", err)
	}
}

// TestNewRejectsBadRules: New refuses rules that could never fire or
// are out of range, instead of silently configuring dead chaos.
func TestNewRejectsBadRules(t *testing.T) {
	bad := []Rule{
		{Point: NumPoints, Fault: FaultLatency, PerMille: 10},                        // unknown point
		{Point: PointSolveStart, Fault: FaultNone, PerMille: 10},                     // no fault
		{Point: PointSolveStart, Fault: FaultStall, PerMille: 10},                    // stall outside worker
		{Point: PointWorker, Fault: FaultError, PerMille: 10},                        // error outside solve
		{Point: PointSolveStart, Fault: FaultEvict, PerMille: 10},                    // evict inside solve
		{Point: PointSolveStart, Fault: FaultError, PerMille: 1001},                  // probability > 1
		{Point: PointSolveStart, Fault: FaultError, PerMille: -1},                    // negative probability
		{Point: PointQuery, Fault: FaultLatency, PerMille: 1, Latency: -time.Second}, // negative latency
	}
	for i, r := range bad {
		if _, err := New(Config{Rules: []Rule{r}}); err == nil {
			t.Errorf("rule %d (%+v) accepted, want error", i, r)
		}
	}
}

// TestParseSpec: the CLI rule syntax round-trips into rules, and
// malformed specs are rejected with the offending fragment named.
func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("solve:latency:1000:2ms, worker:stall:100:5ms:7,acquire:cancel:50")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Point: PointSolveStart, Fault: FaultLatency, PerMille: 1000, Latency: 2 * time.Millisecond},
		{Point: PointWorker, Fault: FaultStall, PerMille: 100, Latency: 5 * time.Millisecond, MaxCount: 7},
		{Point: PointAcquire, Fault: FaultCancel, PerMille: 50},
	}
	if len(rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	for _, spec := range []string{
		"", ",", "solve", "solve:latency", "nowhere:latency:10",
		"solve:frobnicate:10", "solve:latency:ten", "solve:latency:10:xyz",
		"solve:latency:10:1ms:many", "solve:latency:10:1ms:1:extra",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q accepted, want error", spec)
		}
	}
	// Parsed rules must also survive New's validation.
	if _, err := New(Config{Rules: rules}); err != nil {
		t.Fatalf("parsed rules rejected by New: %v", err)
	}
}

// TestPointAndFaultNames: String and Parse are inverses over the full
// enums (the spec syntax and the schedule format depend on it).
func TestPointAndFaultNames(t *testing.T) {
	for p := Point(0); p < NumPoints; p++ {
		got, err := ParsePoint(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePoint(%q) = %v, %v", p.String(), got, err)
		}
	}
	for f := FaultNone + 1; f < NumFaults; f++ {
		got, err := ParseFault(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFault(%q) = %v, %v", f.String(), got, err)
		}
	}
}

// atomic64 is a tiny local helper (avoiding importing sync/atomic with
// a name that collides with the stdlib usage above).
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
