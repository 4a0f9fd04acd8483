package banded

// The rolling-hash collision stress lives in the internal test package
// because it reaches into the hash layer: it swaps the package-level
// bases for deliberately weakened seeded ones, where single-stream
// collisions are as likely as they can be made without crafting inputs
// against a known base. The double-hash comparison must keep every
// answer exact under every seed; the LCP layer is also checked directly
// against a byte scan.

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestHashBasesPerProcess: the bases in use are drawn at package init,
// not the compile-time seed earlier builds used (which any client could
// read and craft colliding inputs against).
func TestHashBasesPerProcess(t *testing.T) {
	if b1, b2 := seedBases(0x5eed5eed5eed5eed); hashBase1 == b1 && hashBase2 == b2 {
		t.Fatal("hash bases are the fixed compile-time seed's")
	}
}

func TestHashCollisionStress(t *testing.T) {
	origB1, origB2 := hashBase1, hashBase2
	defer func() { hashBase1, hashBase2 = origB1, origB2 }()
	for _, seed := range []uint64{0, 1, 42, 0xdead} {
		hashBase1, hashBase2 = seedBases(seed)
		rng := rand.New(rand.NewSource(int64(seed) + 99))
		var ws workspace
		for it := 0; it < 80; it++ {
			// Periodic binary strings maximize repeated substrings —
			// the collision-friendliest shape.
			a := bytes.Repeat(randBytes(rng, 1+rng.Intn(4), 2), 1+rng.Intn(40))
			b := mutateLocal(rng, a, rng.Intn(5))
			if got, want := Distance(a, b), dpEdit(a, b); got != want {
				t.Fatalf("seed %d: Distance(%q, %q) = %d, want %d", seed, a, b, got, want)
			}
			if got, want := LCSScore(a, b), dpLCS(a, b); got != want {
				t.Fatalf("seed %d: LCSScore(%q, %q) = %d, want %d", seed, a, b, got, want)
			}
			if len(a) > 0 && len(b) > 0 {
				ws.j.init(a, b)
				for probe := 0; probe < 20; probe++ {
					i, jb := rng.Intn(len(a)), rng.Intn(len(b))
					if got, want := ws.j.lcp(i, jb), naiveLCP(a[i:], b[jb:]); got != want {
						t.Fatalf("seed %d: lcp(%d,%d) = %d, want %d (a=%q b=%q)", seed, i, jb, got, want, a, b)
					}
				}
			}
		}
	}
}

// mutateLocal applies k random single-character edits to a copy of a.
func mutateLocal(rng *rand.Rand, a []byte, k int) []byte {
	b := append([]byte(nil), a...)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0: // substitute
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(2))
		case op == 1: // insert
			p := rng.Intn(len(b) + 1)
			b = append(b[:p], append([]byte{byte('a' + rng.Intn(2))}, b[p:]...)...)
		case op == 2 && len(b) > 0: // delete
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		}
	}
	return b
}
