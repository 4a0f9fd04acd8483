package dominance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"semilocal/internal/perm"
)

func bruteCount(val []int32, lo, hi, v int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(val) {
		hi = len(val)
	}
	c := 0
	for p := lo; p < hi; p++ {
		if int(val[p]) < v {
			c++
		}
	}
	return c
}

func TestCountLessExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for n := 0; n <= 17; n++ {
		val := perm.Random(n, rng).RowToCol()
		tree := New(val)
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				for v := -1; v <= n+1; v++ {
					want := bruteCount(val, lo, hi, v)
					if got := tree.CountLess(lo, hi, v); got != want {
						t.Fatalf("n=%d CountLess(%d,%d,%d) = %d, want %d (val=%v)",
							n, lo, hi, v, got, want, val)
					}
				}
			}
		}
	}
}

func TestCountLessRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{100, 1000, 4097} {
		val := perm.Random(n, rng).RowToCol()
		tree := New(val)
		for trial := 0; trial < 300; trial++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			v := rng.Intn(n + 1)
			if got, want := tree.CountLess(lo, hi, v), bruteCount(val, lo, hi, v); got != want {
				t.Fatalf("n=%d CountLess(%d,%d,%d) = %d, want %d", n, lo, hi, v, got, want)
			}
		}
	}
}

func TestCountLessProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw % 512)
		rng := rand.New(rand.NewSource(seed))
		val := perm.Random(n, rng).RowToCol()
		tree := New(val)
		for trial := 0; trial < 20; trial++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			v := rng.Intn(n+3) - 1
			if tree.CountLess(lo, hi, v) != bruteCount(val, lo, hi, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCountLessClamping(t *testing.T) {
	tree := New([]int32{2, 0, 1})
	if got := tree.CountLess(-5, 99, 99); got != 3 {
		t.Fatalf("clamped full range = %d, want 3", got)
	}
	if got := tree.CountLess(2, 1, 3); got != 0 {
		t.Fatalf("inverted range = %d, want 0", got)
	}
	if got := tree.CountDominated(1, 2); got != 2 {
		t.Fatalf("CountDominated(1,2) = %d, want 2", got)
	}
}

func TestEmptyTree(t *testing.T) {
	tree := New(nil)
	if tree.Size() != 0 || tree.CountLess(0, 0, 5) != 0 {
		t.Fatal("empty tree misbehaves")
	}
}

func TestBytesTracksStructureSize(t *testing.T) {
	if got := New(nil).Bytes(); got != 0 {
		t.Fatalf("empty tree Bytes = %d, want 0", got)
	}
	small := New([]int32{1, 0})
	big := New(func() []int32 {
		v := make([]int32, 1024)
		for i := range v {
			v[i] = int32(1023 - i)
		}
		return v
	}())
	if small.Bytes() <= 0 || big.Bytes() <= small.Bytes() {
		t.Fatalf("Bytes not monotone in size: small=%d big=%d", small.Bytes(), big.Bytes())
	}
	// levels × rank array is the dominant term: ~4·n·log2(n) bytes.
	if lo, hi, got := 4*1024*10, 8*1024*11, big.Bytes(); got < lo || got > hi {
		t.Fatalf("Bytes = %d, expected within [%d, %d]", got, lo, hi)
	}
}

// TestSizeBytesMatchesBuiltTree: the arithmetic reservation callers
// make before a tree exists is exactly what the built tree occupies,
// and Levels is ⌈log₂n⌉.
func TestSizeBytesMatchesBuiltTree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 1000, 2048, 2049} {
		tree := New(perm.Random(n, rng).RowToCol())
		if got, want := SizeBytes(n), tree.Bytes(); got != want {
			t.Fatalf("n=%d: SizeBytes = %d, built tree Bytes = %d", n, got, want)
		}
		want := 0
		for 1<<want < n {
			want++
		}
		if got := Levels(n); got != want {
			t.Fatalf("Levels(%d) = %d, want %d", n, got, want)
		}
	}
}
