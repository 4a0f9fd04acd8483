package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"semilocal/internal/perm"
)

// encodeKernel builds a wire payload by hand so the error-path tests can
// construct well-formed-but-wrong encodings independently of
// MarshalBinary.
func encodeKernel(m, n int, rowToCol []int32) []byte {
	buf := append([]byte(nil), "SLK1"...)
	buf = binary.AppendUvarint(buf, uint64(m))
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, c := range rowToCol {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf
}

func TestKernelIORoundTripRandomKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		m := rng.Intn(120)
		n := rng.Intn(120)
		k := NewKernel(perm.Random(m+n, rng), m, n)
		data, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeKernel(m, n, k.Permutation().RowToCol()); !bytes.Equal(data, want) {
			t.Fatal("MarshalBinary deviates from the documented wire format")
		}
		back, err := UnmarshalKernel(data)
		if err != nil {
			t.Fatalf("m=%d n=%d: %v", m, n, err)
		}
		if back.M() != m || back.N() != n || !back.Permutation().Equal(k.Permutation()) {
			t.Fatalf("m=%d n=%d: round trip changed the kernel", m, n)
		}
	}
}

func TestUnmarshalKernelErrorPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	p := perm.Random(9, rng)
	good := encodeKernel(4, 5, p.RowToCol())
	if _, err := UnmarshalKernel(good); err != nil {
		t.Fatalf("baseline payload rejected: %v", err)
	}
	cases := map[string][]byte{
		"nil":              nil,
		"magic only":       []byte("SLK1"),
		"short magic":      []byte("SL"),
		"wrong magic":      append([]byte("SLK2"), good[4:]...),
		"missing n":        encodeKernel(4, 5, nil)[:5],
		"truncated body":   good[:len(good)-3],
		"trailing bytes":   append(append([]byte(nil), good...), 0x00),
		"huge dimension":   encodeKernel(1<<41, 5, nil),
		"index too large":  encodeKernel(4, 5, []int32{9, 1, 2, 3, 4, 5, 6, 7, 8}),
		"duplicate column": encodeKernel(4, 5, []int32{1, 1, 2, 3, 4, 5, 6, 7, 8}),
		// Wrong-order payload: header claims m+n = 9 but carries a valid
		// permutation of order 8 (decodes as truncated).
		"order too small": encodeKernel(4, 5, perm.Random(8, rng).RowToCol()),
		// Header claims m+n = 7, payload holds 9 indices (trailing).
		"order too large": encodeKernel(3, 4, p.RowToCol()),
	}
	for name, data := range cases {
		if _, err := UnmarshalKernel(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestUnmarshalKernelEmpty(t *testing.T) {
	k := NewKernel(perm.Identity(0), 0, 0)
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalKernel(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != 0 || back.N() != 0 || back.Permutation().Size() != 0 {
		t.Fatal("empty kernel round trip broken")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 30; trial++ {
		a := randString(rng, rng.Intn(50), 4)
		b := randString(rng, rng.Intn(50), 4)
		k := mustSolve(t, a, b, Config{})
		data, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalKernel(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.M() != k.M() || back.N() != k.N() || !back.Permutation().Equal(k.Permutation()) {
			t.Fatal("round trip changed the kernel")
		}
		// Queries on the decoded kernel still work.
		if back.Score() != k.Score() {
			t.Fatal("decoded kernel scores differently")
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	k := mustSolve(t, []byte("hello"), []byte("world"), Config{})
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("XXXX"), data[4:]...),
		"truncated":    data[:len(data)-2],
		"trailing":     append(append([]byte{}, data...), 0),
		"index broken": append(append([]byte{}, data[:len(data)-1]...), 0xff, 0xff, 0xff, 0x7f),
	}
	for name, d := range cases {
		if _, err := UnmarshalKernel(d); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Duplicate column: encode a non-permutation by hand.
	bad := append([]byte{}, data...)
	// The last two varints are small single-byte values for this size;
	// make them equal.
	bad[len(bad)-1] = bad[len(bad)-2]
	if _, err := UnmarshalKernel(bad); err == nil {
		t.Error("non-permutation accepted")
	}
}
