package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"semilocal/internal/core"
)

// testPair returns a deterministic random input pair.
func testPair(rng *rand.Rand, m, n int) (a, b []byte) {
	const sigma = 4
	a = make([]byte, m)
	b = make([]byte, n)
	for i := range a {
		a[i] = byte('a' + rng.Intn(sigma))
	}
	for i := range b {
		b[i] = byte('a' + rng.Intn(sigma))
	}
	return a, b
}

// solveKernel solves with the default config, failing the test on error.
func solveKernel(t testing.TB, a, b []byte) *core.Kernel {
	t.Helper()
	k, err := core.Solve(a, b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// sameKernel reports whether two kernels are bit-identical.
func sameKernel(x, y *core.Kernel) bool {
	return x.M() == y.M() && x.N() == y.N() && x.Permutation().Equal(y.Permutation())
}

func openT(t testing.TB, dir string, cfg Config) *Store {
	t.Helper()
	st, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStorePutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{})
	defer st.Close()
	rng := rand.New(rand.NewSource(1))
	type stored struct {
		key Key
		k   *core.Kernel
	}
	var all []stored
	for i := 0; i < 20; i++ {
		a, b := testPair(rng, rng.Intn(60), rng.Intn(60))
		k := solveKernel(t, a, b)
		key := KeyOf(a, b)
		if err := st.Put(key, k); err != nil {
			t.Fatal(err)
		}
		all = append(all, stored{key, k})
	}
	if st.Len() != len(all) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(all))
	}
	for i, s := range all {
		got, err := st.Get(s.key)
		if err != nil {
			t.Fatalf("Get #%d: %v", i, err)
		}
		if !sameKernel(got, s.k) {
			t.Fatalf("Get #%d: kernel differs from what was put", i)
		}
	}
	if _, err := st.Get(KeyOf([]byte("absent"), []byte("pair"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key: err = %v, want ErrNotFound", err)
	}
}

func TestStoreReopenRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{})
	rng := rand.New(rand.NewSource(2))
	keys := make(map[Key]*core.Kernel)
	for i := 0; i < 12; i++ {
		a, b := testPair(rng, 10+rng.Intn(40), 10+rng.Intn(40))
		k := solveKernel(t, a, b)
		key := KeyOf(a, b)
		if err := st.Put(key, k); err != nil {
			t.Fatal(err)
		}
		keys[key] = k
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir, Config{})
	defer st2.Close()
	if st2.Len() != len(keys) {
		t.Fatalf("reopened Len = %d, want %d", st2.Len(), len(keys))
	}
	if st2.CorruptRecords() != 0 {
		t.Fatalf("clean reopen counted %d corrupt records", st2.CorruptRecords())
	}
	for key, want := range keys {
		got, err := st2.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !sameKernel(got, want) {
			t.Fatal("reopened kernel differs")
		}
	}
}

// TestStoreLastWriterWins pins the overwrite semantics: a re-Put of an
// existing key supersedes the old record, on the live store and across
// a reopen, and the superseded bytes count as dead.
func TestStoreLastWriterWins(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{})
	a, b := []byte("GATTACA"), []byte("GCATGCU")
	key := KeyOf(a, b)
	k1 := solveKernel(t, a, b)
	if err := st.Put(key, k1); err != nil {
		t.Fatal(err)
	}
	// A different kernel under the same key (nonsensical for real use,
	// decisive for the test): the kernel of another pair.
	k2 := solveKernel(t, []byte("CTGAA"), []byte("TTGAA"))
	if err := st.Put(key, k2); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", st.Len())
	}
	if st.DeadBytes() == 0 {
		t.Fatal("overwrite left no dead bytes")
	}
	got, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !sameKernel(got, k2) {
		t.Fatal("Get returned the superseded kernel")
	}
	st.Close()
	st2 := openT(t, dir, Config{})
	defer st2.Close()
	got2, err := st2.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !sameKernel(got2, k2) {
		t.Fatal("reopen resurrected the superseded kernel")
	}
}

// TestStoreFingerprintCollision forges two keys that agree in their
// first 8 bytes — the index fingerprint — and differ after it. The
// second Put supersedes the first record; Get of the first key then
// reports ErrNotFound, never the other key's kernel, and does not
// count the sound record corrupt. Len, DeadBytes, Keys, Compact and a
// reopen all agree.
func TestStoreFingerprintCollision(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{NoSync: true})
	first := KeyOf([]byte("GATTACA"), []byte("GCATGCU"))
	second := first
	second[31] ^= 0xff
	k1 := solveKernel(t, []byte("GATTACA"), []byte("GCATGCU"))
	k2 := solveKernel(t, []byte("CTGAA"), []byte("TTGAA"))
	if err := st.Put(first, k1); err != nil {
		t.Fatal(err)
	}
	firstSize := st.LogBytes()
	if err := st.Put(second, k2); err != nil {
		t.Fatal(err)
	}
	check := func(st *Store, label string, wantDead int64) {
		t.Helper()
		if _, err := st.Get(first); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Get(first) = %v, want ErrNotFound", label, err)
		}
		got, err := st.Get(second)
		if err != nil {
			t.Fatalf("%s: Get(second): %v", label, err)
		}
		if !sameKernel(got, k2) {
			t.Fatalf("%s: Get(second) returned another kernel", label)
		}
		if st.Len() != 1 {
			t.Fatalf("%s: Len = %d, want 1", label, st.Len())
		}
		if keys := st.Keys(); len(keys) != 1 || keys[0] != second {
			t.Fatalf("%s: Keys = %x, want only the second key", label, keys)
		}
		if st.DeadBytes() != wantDead {
			t.Fatalf("%s: DeadBytes = %d, want %d", label, st.DeadBytes(), wantDead)
		}
		if st.CorruptRecords() != 0 {
			t.Fatalf("%s: %d records counted corrupt, want 0", label, st.CorruptRecords())
		}
	}
	check(st, "after put", firstSize)
	st.Close()
	st = openT(t, dir, Config{NoSync: true})
	check(st, "reopen", firstSize)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check(st, "compacted", 0)
	st.Close()
	st = openT(t, dir, Config{NoSync: true})
	defer st.Close()
	check(st, "reopen after compaction", 0)
}

// TestStoreCrashRecoveryEveryByte is the crash property test demanded
// by the issue: with the log truncated at EVERY byte offset of the
// final record, reopening recovers exactly the committed prefix — all
// earlier records intact, the torn one gone, and the file cut back to
// the last clean boundary so the next append is sound.
func TestStoreCrashRecoveryEveryByte(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{NoSync: true})
	rng := rand.New(rand.NewSource(3))
	type stored struct {
		key Key
		k   *core.Kernel
	}
	var all []stored
	var boundaries []int64 // log length after each Put
	for i := 0; i < 4; i++ {
		a, b := testPair(rng, 8+rng.Intn(24), 8+rng.Intn(24))
		k := solveKernel(t, a, b)
		key := KeyOf(a, b)
		if err := st.Put(key, k); err != nil {
			t.Fatal(err)
		}
		all = append(all, stored{key, k})
		boundaries = append(boundaries, st.LogBytes())
	}
	st.Close()
	logPath := filepath.Join(dir, logName)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	last := len(all) - 1
	prevEnd := boundaries[last-1]
	for cut := prevEnd; cut <= boundaries[last]; cut++ {
		if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Config{NoSync: true})
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		complete := cut == boundaries[last]
		wantLen := last
		if complete {
			wantLen = last + 1
		}
		if st.Len() != wantLen {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, st.Len(), wantLen)
		}
		// The committed prefix survives byte-identically.
		for i := 0; i < wantLen; i++ {
			got, err := st.Get(all[i].key)
			if err != nil {
				t.Fatalf("cut=%d: committed record %d lost: %v", cut, i, err)
			}
			if !sameKernel(got, all[i].k) {
				t.Fatalf("cut=%d: committed record %d corrupted", cut, i)
			}
		}
		// The torn record is gone, not half-served.
		if !complete {
			if _, err := st.Get(all[last].key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("cut=%d: torn record: err = %v, want ErrNotFound", cut, err)
			}
			if st.LogBytes() != prevEnd {
				t.Fatalf("cut=%d: log not truncated to the clean boundary: %d != %d", cut, st.LogBytes(), prevEnd)
			}
		}
		// The recovered store accepts appends on the clean boundary.
		na, nb := []byte("post"), []byte("crash")
		nk := solveKernel(t, na, nb)
		if err := st.Put(KeyOf(na, nb), nk); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		back, err := st.Get(KeyOf(na, nb))
		if err != nil || !sameKernel(back, nk) {
			t.Fatalf("cut=%d: post-recovery append unreadable: %v", cut, err)
		}
		st.Close()
	}
}

// TestStoreBitFlipsDetected is the corruption-injection wall: every
// single-bit flip in the middle record of a three-record log must be
// detected — the flipped record (or, for flips that break framing, the
// records from the flip onward) is never returned, the untouched first
// record always survives, and the corruption is counted.
func TestStoreBitFlipsDetected(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{NoSync: true})
	pairs := [][2][]byte{
		{[]byte("first-a"), []byte("first-b")},
		{[]byte("middle-a"), []byte("middle-b")},
		{[]byte("last-a"), []byte("last-b")},
	}
	var keys []Key
	var kernels []*core.Kernel
	var bounds []int64
	for _, p := range pairs {
		k := solveKernel(t, p[0], p[1])
		key := KeyOf(p[0], p[1])
		if err := st.Put(key, k); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		kernels = append(kernels, k)
		bounds = append(bounds, st.LogBytes())
	}
	st.Close()
	logPath := filepath.Join(dir, logName)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	midStart, midEnd := bounds[0], bounds[1]
	for off := midStart; off < midEnd; off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[off] ^= 1 << bit
			if err := os.WriteFile(logPath, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, Config{NoSync: true})
			if err != nil {
				t.Fatalf("off=%d bit=%d: open failed: %v", off, bit, err)
			}
			// The middle record must never come back intact-looking:
			// either Get misses (skipped/truncated) or — impossible
			// here, but assert anyway — a returned kernel must equal
			// the original, which a flip precludes.
			if got, err := st.Get(keys[1]); err == nil && !sameKernel(got, kernels[1]) {
				t.Fatalf("off=%d bit=%d: flipped record served", off, bit)
			} else if err == nil {
				t.Fatalf("off=%d bit=%d: flipped record round-tripped to the original — CRC hole", off, bit)
			}
			// The record before the flip always survives.
			got, err := st.Get(keys[0])
			if err != nil || !sameKernel(got, kernels[0]) {
				t.Fatalf("off=%d bit=%d: record before the flip lost: %v", off, bit, err)
			}
			// Detection is visible: either the scan counted corruption
			// or the flip broke framing and the tail was truncated.
			if st.CorruptRecords() == 0 && st.LogBytes() == bounds[2] {
				t.Fatalf("off=%d bit=%d: flip neither counted nor truncated", off, bit)
			}
			st.Close()
		}
	}
}

// TestStoreCorruptAfterOpen exercises the read-time verification path:
// a record that goes bad on disk AFTER the open scan (index still
// points at it) must return ErrCorrupt, be dropped from the index, and
// be counted.
func TestStoreCorruptAfterOpen(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{NoSync: true})
	defer st.Close()
	a, b := []byte("decays"), []byte("on-disk")
	key := KeyOf(a, b)
	if err := st.Put(key, solveKernel(t, a, b)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte behind the store's back.
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := f.ReadAt(one[:], headerSize); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x10
	if _, err := f.WriteAt(one[:], headerSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := st.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get after on-disk flip: err = %v, want ErrCorrupt", err)
	}
	if st.CorruptRecords() != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", st.CorruptRecords())
	}
	// The record is gone from the index: the second read misses.
	if _, err := st.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get: err = %v, want ErrNotFound", err)
	}
	if st.DeadBytes() == 0 {
		t.Fatal("corrupt record's bytes not marked dead")
	}
}

// TestStoreGarbagePrefixTruncated pins the open-scan behavior for a
// log that starts with garbage: nothing recovers, and the store comes
// up empty and usable.
func TestStoreGarbagePrefixTruncated(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), bytes.Repeat([]byte{0xAB}, 300), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openT(t, dir, Config{NoSync: true})
	defer st.Close()
	if st.Len() != 0 || st.LogBytes() != 0 {
		t.Fatalf("garbage log recovered %d records, %d bytes", st.Len(), st.LogBytes())
	}
	a, b := []byte("fresh"), []byte("start")
	if err := st.Put(KeyOf(a, b), solveKernel(t, a, b)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(KeyOf(a, b)); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCompaction drops dead bytes, keeps every live kernel, and
// survives a reopen.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{NoSync: true})
	rng := rand.New(rand.NewSource(4))
	live := make(map[Key]*core.Kernel)
	var firstKey Key
	for i := 0; i < 10; i++ {
		a, b := testPair(rng, 8+rng.Intn(24), 8+rng.Intn(24))
		k := solveKernel(t, a, b)
		key := KeyOf(a, b)
		if i == 0 {
			firstKey = key
		}
		if err := st.Put(key, k); err != nil {
			t.Fatal(err)
		}
		live[key] = k
	}
	// Supersede the first key several times to pile up dead bytes.
	for i := 0; i < 5; i++ {
		a, b := testPair(rng, 8+rng.Intn(24), 8+rng.Intn(24))
		k := solveKernel(t, a, b)
		if err := st.Put(firstKey, k); err != nil {
			t.Fatal(err)
		}
		live[firstKey] = k
	}
	if st.DeadBytes() == 0 {
		t.Fatal("no dead bytes to compact")
	}
	before := st.LogBytes()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Compactions() != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions())
	}
	if st.DeadBytes() != 0 {
		t.Fatalf("DeadBytes = %d after compaction", st.DeadBytes())
	}
	if st.LogBytes() >= before {
		t.Fatalf("compaction did not shrink the log: %d → %d", before, st.LogBytes())
	}
	for key, want := range live {
		got, err := st.Get(key)
		if err != nil || !sameKernel(got, want) {
			t.Fatalf("kernel lost in compaction: %v", err)
		}
	}
	st.Close()
	st2 := openT(t, dir, Config{NoSync: true})
	defer st2.Close()
	if st2.Len() != len(live) {
		t.Fatalf("reopen after compaction: %d records, want %d", st2.Len(), len(live))
	}
	for key, want := range live {
		got, err := st2.Get(key)
		if err != nil || !sameKernel(got, want) {
			t.Fatalf("kernel lost across compaction+reopen: %v", err)
		}
	}
}

// TestStoreMaybeCompactThresholds pins the trigger: below either
// threshold nothing happens; past both, a pass runs.
func TestStoreMaybeCompactThresholds(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{NoSync: true, CompactMinBytes: 1, CompactFraction: 0.5})
	a, b := []byte("abcabba"), []byte("cbabac")
	key := KeyOf(a, b)
	k := solveKernel(t, a, b)
	if err := st.Put(key, k); err != nil {
		t.Fatal(err)
	}
	if ran, err := st.MaybeCompact(); err != nil || ran {
		t.Fatalf("MaybeCompact with no dead bytes: ran=%v err=%v", ran, err)
	}
	// Two supersedes → dead is 2/3 of the log > 0.5.
	st.Put(key, k)
	st.Put(key, k)
	ran, err := st.MaybeCompact()
	if err != nil || !ran {
		t.Fatalf("MaybeCompact past both thresholds: ran=%v err=%v", ran, err)
	}
	if st.DeadBytes() != 0 || st.Len() != 1 {
		t.Fatalf("after compaction: dead=%d len=%d", st.DeadBytes(), st.Len())
	}
	st.Close()
}

// TestStoreLeftoverCompactionTempRemoved: a crash between writing the
// compaction temp file and the rename leaves the temp behind; Open must
// discard it and serve the original log.
func TestStoreLeftoverCompactionTempRemoved(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{NoSync: true})
	a, b := []byte("kept"), []byte("log")
	key := KeyOf(a, b)
	k := solveKernel(t, a, b)
	if err := st.Put(key, k); err != nil {
		t.Fatal(err)
	}
	st.Close()
	tmp := filepath.Join(dir, compactName)
	if err := os.WriteFile(tmp, []byte("half-written compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir, Config{NoSync: true})
	defer st2.Close()
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("leftover compaction temp not removed")
	}
	got, err := st2.Get(key)
	if err != nil || !sameKernel(got, k) {
		t.Fatalf("original log not served after temp cleanup: %v", err)
	}
}

// TestStoreDifferentialAllConfigs is the roundtrip differential wall:
// for every algorithm configuration, a kernel solved, stored, and read
// back is bit-identical to a fresh solve — and to every other config's
// kernel, which is what justifies the content-only store key.
func TestStoreDifferentialAllConfigs(t *testing.T) {
	configs := []core.Config{
		{Algorithm: core.RowMajor},
		{Algorithm: core.Antidiag},
		{Algorithm: core.AntidiagBranchless},
		{Algorithm: core.LoadBalanced, Workers: 2},
		{Algorithm: core.Recursive},
		{Algorithm: core.Hybrid, Workers: 2},
		{Algorithm: core.GridReduction, Workers: 2},
	}
	dir := t.TempDir()
	st := openT(t, dir, Config{NoSync: true})
	defer st.Close()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		a, b := testPair(rng, 5+rng.Intn(70), 5+rng.Intn(70))
		key := KeyOf(a, b)
		var ref *core.Kernel
		for _, cfg := range configs {
			k, err := core.Solve(a, b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = k
			} else if !sameKernel(ref, k) {
				t.Fatalf("trial %d: config %+v produced a different kernel — content-only store key unsound", trial, cfg)
			}
			if err := st.Put(key, k); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if !sameKernel(got, k) {
				t.Fatalf("trial %d: store roundtrip differs from fresh solve under %+v", trial, cfg)
			}
		}
	}
}

// TestStoreConcurrentSoak races 8 goroutines of mixed reads, puts, and
// compactions against one store; run under -race this is the
// concurrency wall. Every successful Get must return the exact kernel
// of its key.
func TestStoreConcurrentSoak(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{NoSync: true, CompactMinBytes: 1, CompactFraction: 0.2})
	defer st.Close()
	rng := rand.New(rand.NewSource(6))
	const nKeys = 16
	keys := make([]Key, nKeys)
	kernels := make([]*core.Kernel, nKeys)
	for i := range keys {
		a, b := testPair(rng, 4+rng.Intn(28), 4+rng.Intn(28))
		keys[i] = KeyOf(a, b)
		kernels[i] = solveKernel(t, a, b)
	}
	const goroutines = 8
	const opsEach = 300
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for op := 0; op < opsEach; op++ {
				i := rng.Intn(nKeys)
				switch rng.Intn(10) {
				case 0:
					if _, err := st.MaybeCompact(); err != nil {
						errs <- fmt.Errorf("g%d: MaybeCompact: %w", g, err)
						return
					}
				case 1, 2, 3:
					if err := st.Put(keys[i], kernels[i]); err != nil {
						errs <- fmt.Errorf("g%d: Put: %w", g, err)
						return
					}
				default:
					got, err := st.Get(keys[i])
					if errors.Is(err, ErrNotFound) {
						continue // not yet written
					}
					if err != nil {
						errs <- fmt.Errorf("g%d: Get: %w", g, err)
						return
					}
					if !sameKernel(got, kernels[i]) {
						errs <- fmt.Errorf("g%d: Get returned the wrong kernel", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st.CorruptRecords() != 0 {
		t.Fatalf("soak produced %d corrupt records", st.CorruptRecords())
	}
	// Quiescent exactness: everything written is readable.
	st.Compact()
	st.Close()
	st2 := openT(t, dir, Config{NoSync: true})
	defer st2.Close()
	for i, key := range keys {
		got, err := st2.Get(key)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil || !sameKernel(got, kernels[i]) {
			t.Fatalf("post-soak reopen: key %d: %v", i, err)
		}
	}
}

func TestStoreClosedSemantics(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir, Config{})
	a, b := []byte("x"), []byte("y")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := st.Get(KeyOf(a, b)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v", err)
	}
	if err := st.Put(KeyOf(a, b), solveKernel(t, a, b)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v", err)
	}
	if err := st.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close: %v", err)
	}
}

func TestKeyOfSeparatesBoundaries(t *testing.T) {
	if KeyOf([]byte("ab"), []byte("c")) == KeyOf([]byte("a"), []byte("bc")) {
		t.Fatal("KeyOf collides across the a/b boundary")
	}
	if KeyOf([]byte("ab"), []byte("c")) != KeyOf([]byte("ab"), []byte("c")) {
		t.Fatal("KeyOf not deterministic")
	}
}

// Compact unconditionally rewrites the live records into a fresh log,
// dropping all dead bytes.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	return st.compactLocked()
}

// LogBytes returns the current log length in bytes. The crash-recovery
// property tests use successive values as record boundaries.
func (st *Store) LogBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.size
}

// DeadBytes returns the bytes owned by superseded or corrupt records.
func (st *Store) DeadBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.dead
}

// Compactions returns the number of compaction passes run since Open.
func (st *Store) Compactions() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.compactions
}

// Keys returns the live keys in unspecified order, read from the
// record headers (the index holds only fingerprints). A record whose
// header cannot be read is left out.
func (st *Store) Keys() []Key {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]Key, 0, st.index.count())
	var key Key
	for _, sl := range st.index.slots() {
		if _, err := st.f.ReadAt(key[:], sl.e.off+keyOff); err == nil {
			out = append(out, key)
		}
	}
	return out
}
