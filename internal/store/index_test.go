package store

import (
	"math/rand"
	"testing"
)

// TestIndexMatchesMap drives the fingerprint index through random
// sets, supersedes and removals across many folds, and checks it
// against a plain map after every step.
func TestIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x index
	ref := map[uint64]entry{}
	var fps []uint64
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(fps) == 0: // a new fingerprint
			fp := rng.Uint64()
			e := entry{off: int64(step), payloadLen: uint32(step % 97)}
			_, had := x.set(fp, e)
			if _, want := ref[fp]; had != want {
				t.Fatalf("step %d: set reported superseding %v, want %v", step, had, want)
			}
			ref[fp] = e
			fps = append(fps, fp)
		case op < 8: // supersede an existing one
			fp := fps[rng.Intn(len(fps))]
			e := entry{off: int64(step), payloadLen: 1}
			old, had := x.set(fp, e)
			if want, ok := ref[fp]; had != ok || (ok && old != want) {
				t.Fatalf("step %d: set returned (%v, %v), want (%v, %v)", step, old, had, want, ok)
			}
			ref[fp] = e
		default: // remove one
			fp := fps[rng.Intn(len(fps))]
			x.remove(fp)
			delete(ref, fp)
		}
		if x.count() != len(ref) {
			t.Fatalf("step %d: count %d, want %d", step, x.count(), len(ref))
		}
		if step%997 == 0 {
			for _, fp := range fps {
				got, ok := x.get(fp)
				want, wok := ref[fp]
				if ok != wok || got != want {
					t.Fatalf("step %d: get(%x) = (%v, %v), want (%v, %v)", step, fp, got, ok, want, wok)
				}
			}
			if n := len(x.slots()); n != len(ref) {
				t.Fatalf("step %d: %d slots, want %d", step, n, len(ref))
			}
		}
	}
	if len(x.recent) >= max(minFold, len(x.base)/4) {
		t.Fatalf("recent holds %d records beside a base of %d: fold never ran", len(x.recent), len(x.base))
	}
}
