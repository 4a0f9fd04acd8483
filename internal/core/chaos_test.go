package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"semilocal/internal/chaos"
)

// TestSolveInjectedNilParity: with no injector and no recorder,
// SolveWith is Solve — same kernel, bit for bit.
func TestSolveInjectedNilParity(t *testing.T) {
	a, b := []byte("abracadabra"), []byte("alakazam")
	for _, cfg := range []Config{
		{},
		{Algorithm: AntidiagBranchless},
		{Algorithm: GridReduction, Workers: 2},
	} {
		want, err := Solve(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveWith(a, b, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score() != want.Score() {
			t.Fatalf("cfg %+v: SolveWith score %d, want %d", cfg, got.Score(), want.Score())
		}
		for i := 0; i <= len(b); i++ {
			for j := i; j <= len(b); j++ {
				if got.StringSubstring(i, j) != want.StringSubstring(i, j) {
					t.Fatalf("cfg %+v: kernels deviate at [%d,%d)", cfg, i, j)
				}
			}
		}
	}
}

// TestSolveInjectedErrorPoints: an error rule at either solve point
// surfaces a typed transient chaos error naming that point; latency
// rules delay but never corrupt the result.
func TestSolveInjectedErrorPoints(t *testing.T) {
	a, b := []byte("gattaca"), []byte("tacgat")
	for _, tc := range []struct {
		point chaos.Point
		name  string
	}{
		{chaos.PointSolveStart, "solve"},
		{chaos.PointSolveFinish, "solve-finish"},
	} {
		inj, err := chaos.New(chaos.Config{Seed: 1, Rules: []chaos.Rule{
			{Point: tc.point, Fault: chaos.FaultError, PerMille: 1000, MaxCount: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = SolveWith(a, b, Config{}, nil, inj)
		if !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("%s: err = %v, want ErrInjected", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("%s: error %q does not name its point", tc.name, err)
		}
		// Budget spent: the next solve succeeds and matches Solve.
		k, err := SolveWith(a, b, Config{}, nil, inj)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Solve(a, b, Config{})
		if k.Score() != want.Score() {
			t.Fatalf("%s: post-fault solve score %d, want %d", tc.name, k.Score(), want.Score())
		}
	}

	// Latency at both points: slower, never wrong.
	inj, err := chaos.New(chaos.Config{Seed: 2, Rules: []chaos.Rule{
		{Point: chaos.PointSolveStart, Fault: chaos.FaultLatency, PerMille: 1000, Latency: time.Millisecond},
		{Point: chaos.PointSolveFinish, Fault: chaos.FaultLatency, PerMille: 1000, Latency: time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	k, err := SolveWith(a, b, Config{}, nil, inj)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed < 2*time.Millisecond {
		t.Fatalf("latency injection at both points took only %v", elapsed)
	}
	want, _ := Solve(a, b, Config{})
	if k.Score() != want.Score() {
		t.Fatalf("latency-injected solve score %d, want %d", k.Score(), want.Score())
	}
}
