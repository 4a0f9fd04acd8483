package query

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/store"
)

// openStoreT opens a persistent store in dir (NoSync: these tests
// simulate crashes by hand, not by pulling power).
func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreWarmRestartSkipsSolving is the tentpole's acceptance test:
// a first engine populates the store; a second engine on the same
// directory runs under chaos that fails EVERY solve — so the only way
// it can answer correctly is from the store. It does, bit-identically.
func TestStoreWarmRestartSkipsSolving(t *testing.T) {
	reqs := chaosRequests()
	want := oracleResults(t, reqs)
	const uniquePairs = 4 // chaosRequests crosses 4 pairs with 7 kinds

	dir := t.TempDir()
	st1 := openStoreT(t, dir)
	e1 := NewEngine(Options{Workers: 2, Store: st1})
	got1 := e1.BatchSolve(context.Background(), reqs)
	for i, r := range got1 {
		if r.Err != nil || !sameResult(r, want[i]) {
			t.Fatalf("cold run request %d: err=%v", i, r.Err)
		}
	}
	e1.Close() // drains the append queue
	s1 := e1.Stats()
	if s1["store_hits"] != 0 || s1["store_misses"] != uniquePairs || s1["store_appends"] != uniquePairs {
		t.Fatalf("cold run counters: hits=%d misses=%d appends=%d, want 0/%d/%d",
			s1["store_hits"], s1["store_misses"], s1["store_appends"], uniquePairs, uniquePairs)
	}
	if st1.Len() != uniquePairs {
		t.Fatalf("store holds %d kernels after the cold run, want %d", st1.Len(), uniquePairs)
	}
	st1.Close()

	// "Restart": fresh store handle, fresh engine, every solve fails.
	inj, err := chaos.New(chaos.Config{Seed: 7, Rules: []chaos.Rule{
		{Point: chaos.PointSolveStart, Fault: chaos.FaultError, PerMille: 1000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	st2 := openStoreT(t, dir)
	defer st2.Close()
	rec := obs.New()
	e2 := NewEngine(Options{Workers: 2, Store: st2, Chaos: inj, Obs: rec})
	defer e2.Close()
	got2 := e2.BatchSolve(context.Background(), reqs)
	for i, r := range got2 {
		if r.Err != nil {
			t.Fatalf("warm request %d errored — it must have tried to solve: %v", i, r.Err)
		}
		if !sameResult(r, want[i]) {
			t.Fatalf("warm request %d deviates from the oracle", i)
		}
	}
	s2 := e2.Stats()
	if s2["store_hits"] != uniquePairs || s2["store_misses"] != 0 {
		t.Fatalf("warm run counters: hits=%d misses=%d, want %d/0", s2["store_hits"], s2["store_misses"], uniquePairs)
	}
	snap := rec.Snapshot()
	if snap.Counters[obs.CounterStoreHits] != uniquePairs {
		t.Fatalf("obs store_hits = %d, want %d", snap.Counters[obs.CounterStoreHits], uniquePairs)
	}
	if got := snap.Stages[obs.StageStoreRead].Count; got != uniquePairs {
		t.Fatalf("store_read spans = %d, want %d", got, uniquePairs)
	}
}

// TestStoreChaosMetamorphic is the satellite's degradation claim: with
// EVERY store access failing (reads and appends), the serving path
// falls back to solve-from-scratch with answers bit-identical to the
// fault-free oracle — the store can only make things faster, never
// wrong.
func TestStoreChaosMetamorphic(t *testing.T) {
	reqs := chaosRequests()
	want := oracleResults(t, reqs)

	dir := t.TempDir()
	st := openStoreT(t, dir)
	defer st.Close()
	inj, err := chaos.New(chaos.Config{Seed: 9, Rules: []chaos.Rule{
		{Point: chaos.PointStore, Fault: chaos.FaultError, PerMille: 1000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Workers: 4, Store: st, Chaos: inj})
	got := e.BatchSolve(context.Background(), reqs)
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("request %d errored under store chaos — store faults must degrade, not fail: %v", i, r.Err)
		}
		if !sameResult(r, want[i]) {
			t.Fatalf("request %d deviates under store chaos", i)
		}
	}
	e.Close()
	s := e.Stats()
	if s["store_hits"] != 0 {
		t.Fatalf("store_hits = %d under total store failure", s["store_hits"])
	}
	if s["store_appends"] != 0 || st.Len() != 0 {
		t.Fatalf("faulted appends still landed: appends=%d len=%d", s["store_appends"], st.Len())
	}
	if inj.Fired() == 0 {
		t.Fatal("chaos injected nothing; the run proved nothing")
	}
}

// TestStoreChaosLatencyWarmsAnyway: latency and stall faults on the
// store point delay but do not discard work — answers stay identical
// and the store still ends up warm.
func TestStoreChaosLatencyWarmsAnyway(t *testing.T) {
	reqs := chaosRequests()
	want := oracleResults(t, reqs)
	const uniquePairs = 4

	dir := t.TempDir()
	st := openStoreT(t, dir)
	defer st.Close()
	inj, err := chaos.New(chaos.Config{Seed: 13, Rules: []chaos.Rule{
		{Point: chaos.PointStore, Fault: chaos.FaultLatency, PerMille: 500, Latency: 100 * time.Microsecond},
		{Point: chaos.PointStore, Fault: chaos.FaultStall, PerMille: 300, Latency: 200 * time.Microsecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Workers: 4, Store: st, Chaos: inj})
	got := e.BatchSolve(context.Background(), reqs)
	for i, r := range got {
		if r.Err != nil || !sameResult(r, want[i]) {
			t.Fatalf("request %d under store latency chaos: err=%v", i, r.Err)
		}
	}
	e.Close()
	if st.Len() != uniquePairs {
		t.Fatalf("store holds %d kernels, want %d", st.Len(), uniquePairs)
	}
}

// TestStoreCorruptRecordFallsBackToSolve: a record that rots on disk
// after the open scan is detected at read time, counted, never served —
// the request solves from scratch and the fresh kernel heals the store.
func TestStoreCorruptRecordFallsBackToSolve(t *testing.T) {
	a, b := []byte("abracadabra"), []byte("alakazam-abra")
	k, err := core.Solve(a, b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantScore := k.Score()

	dir := t.TempDir()
	st0 := openStoreT(t, dir)
	if err := st0.Put(store.KeyOf(a, b), k); err != nil {
		t.Fatal(err)
	}
	st0.Close()
	// Rot one payload byte behind the next open's back. The record
	// header is 48 bytes (see the internal/store format doc), so
	// offset 51 sits inside the kernel payload.
	logPath := filepath.Join(dir, "kernels.log")
	f, err := os.OpenFile(logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreT(t, dir) // scan passes: the rot comes after
	defer st.Close()
	var one [1]byte
	if _, err := f.ReadAt(one[:], 51); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x04
	if _, err := f.WriteAt(one[:], 51); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e := NewEngine(Options{Store: st})
	res := e.BatchSolve(context.Background(), []Request{{A: a, B: b, Kind: Score}})
	if res[0].Err != nil || res[0].Score != wantScore {
		t.Fatalf("corrupt-store request: score=%d err=%v, want %d", res[0].Score, res[0].Err, wantScore)
	}
	e.Close()
	s := e.Stats()
	if s["store_corrupt_records"] == 0 {
		t.Fatal("corruption went uncounted")
	}
	if s["store_hits"] != 0 || s["store_misses"] != 1 {
		t.Fatalf("counters: hits=%d misses=%d, want 0/1", s["store_hits"], s["store_misses"])
	}
	// The fresh solve's append healed the store.
	healed, err := st.Get(store.KeyOf(a, b))
	if err != nil {
		t.Fatalf("store not healed by the fresh solve: %v", err)
	}
	if healed.Score() != wantScore {
		t.Fatal("healed record holds the wrong kernel")
	}
}

// TestStoreEngineConcurrentSoak races 8 goroutines of batches against
// an engine whose LRU holds a single session, forcing constant
// evictions and therefore constant store reads concurrent with store
// appends. Run under -race this is the integration concurrency wall;
// every answer must match the fault-free oracle, and nothing may be
// counted corrupt.
func TestStoreEngineConcurrentSoak(t *testing.T) {
	reqs := chaosRequests()
	want := oracleResults(t, reqs)

	dir := t.TempDir()
	st := openStoreT(t, dir)
	defer st.Close()
	e := NewEngine(Options{Workers: 4, MaxKernels: 1, Store: st})
	defer e.Close()

	const goroutines = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				got := e.BatchSolve(context.Background(), reqs)
				for i, r := range got {
					if r.Err != nil {
						errs <- r.Err.Error()
						return
					}
					if !sameResult(r, want[i]) {
						errs <- "answer deviates from the oracle"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	s := e.Stats()
	if s["store_corrupt_records"] != 0 || st.CorruptRecords() != 0 {
		t.Fatalf("soak produced corruption: %d/%d", s["store_corrupt_records"], st.CorruptRecords())
	}
	if s["store_hits"] == 0 {
		t.Fatal("soak never hit the store; MaxKernels=1 should force store reads")
	}
}

// TestStoreTierCloseSemantics: Engine.Close drains pending appends
// (everything published is durable), is idempotent, and the publisher
// goroutine is gone when it returns — a second engine on the same
// store sees every kernel.
func TestStoreTierCloseSemantics(t *testing.T) {
	dir := t.TempDir()
	st := openStoreT(t, dir)
	defer st.Close()
	e := NewEngine(Options{Store: st})
	res := e.BatchSolve(context.Background(), []Request{
		{A: []byte("drained"), B: []byte("on-close"), Kind: Score},
	})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	e.Close()
	e.Close() // idempotent
	if st.Len() != 1 {
		t.Fatalf("append not drained by Close: store holds %d kernels", st.Len())
	}
	if _, err := st.Get(store.KeyOf([]byte("drained"), []byte("on-close"))); err != nil {
		t.Fatalf("published kernel not durable after Close: %v", err)
	}
}

// TestStoreOpenScanCorruptionSeedsCounters: corruption discovered by
// the open scan (before any engine exists) must surface through the
// engine counters the moment the tier is built.
func TestStoreOpenScanCorruptionSeedsCounters(t *testing.T) {
	a, b := []byte("scanned"), []byte("corrupt")
	k, err := core.Solve(a, b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st0 := openStoreT(t, dir)
	if err := st0.Put(store.KeyOf(a, b), k); err != nil {
		t.Fatal(err)
	}
	st0.Close()
	// Flip a payload byte while no store is open: the NEXT open's scan
	// finds it.
	logPath := filepath.Join(dir, "kernels.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[51] ^= 0x02
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStoreT(t, dir)
	defer st.Close()
	rec := obs.New()
	e := NewEngine(Options{Store: st, Obs: rec})
	defer e.Close()
	if got := e.Stats()["store_corrupt_records"]; got != 1 {
		t.Fatalf("scan corruption not seeded into stats: %d", got)
	}
	if got := rec.Counter(obs.CounterStoreCorrupt); got != 1 {
		t.Fatalf("scan corruption not seeded into obs: %d", got)
	}
}

// TestStoreDisabledKeepsCounterSetUnchanged: a store-less engine
// exports the same counter names as a store-backed one, and serving a
// miss without a store leaves every store counter at zero.
func TestStoreDisabledKeepsCounterSetUnchanged(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	defer st.Close()
	with := NewEngine(Options{Store: st})
	defer with.Close()
	e := NewEngine(Options{})
	defer e.Close()
	if _, err := e.Acquire(context.Background(), []byte("kitten"), []byte("sitting")); err != nil {
		t.Fatal(err)
	}
	snap, withSnap := e.Stats(), with.Stats()
	if len(snap) != len(withSnap) {
		t.Fatalf("store-less engine exports %d counters, store-backed %d", len(snap), len(withSnap))
	}
	for name := range withSnap {
		if _, ok := snap[name]; !ok {
			t.Errorf("store-less engine lacks %q", name)
		}
	}
	if snap["cache_misses"] != 1 {
		t.Fatalf("cache_misses = %d, want 1: the miss was not served", snap["cache_misses"])
	}
	for _, name := range []string{"store_hits", "store_misses", "store_appends", "store_corrupt_records"} {
		if v, ok := snap[name]; !ok || v != 0 {
			t.Errorf("store-less engine %s = %d (exported %v), want 0", name, v, ok)
		}
	}
}
