package combing

import (
	"bytes"
	"testing"
)

// TestFits16Boundary pins the 16-bit eligibility decision at its exact
// edge: m+n == Max16 is the last eligible size (strand indices run
// 0 … m+n-1, so 2¹⁶ strands still fit a uint16), one more strand is
// not. The square case 2n == Max16 is the shape benchsuite's ablation
// historically gated ad hoc.
func TestFits16Boundary(t *testing.T) {
	half := Max16 / 2
	cases := []struct {
		m, n int
		want bool
	}{
		{half, half, true},      // 2n == Max16, the ablation gate's shape
		{half, half + 1, false}, // one past the square boundary
		{1, Max16 - 1, true},    // extreme aspect, exactly at the edge
		{2, Max16 - 1, false},   // one strand too many
		{0, Max16, true},        // degenerate but representable
		{0, 0, true},            //
		{Max16, Max16, false},   //
	}
	for _, c := range cases {
		if got := Fits16(c.m, c.n); got != c.want {
			t.Errorf("Fits16(%d, %d) = %v, want %v", c.m, c.n, got, c.want)
		}
	}
}

// TestAntidiag16AtExactBoundary combs a problem of exactly m+n == Max16
// — the largest size the 16-bit kernels accept — and checks the kernel
// against the 32-bit comb. An extreme 1×(Max16-1) aspect keeps the
// quadratic work trivial.
func TestAntidiag16AtExactBoundary(t *testing.T) {
	n := Max16 - 1
	a := []byte{1}
	b := bytes.Repeat([]byte{0, 1, 1, 0}, n/4)
	b = append(b, make([]byte, n-len(b))...)
	want := Antidiag(a, b, Options{Branchless: true})
	got := Antidiag16(a, b, Options{})
	if !got.Equal(want) {
		t.Fatal("Antidiag16 kernel at m+n == Max16 differs from the 32-bit comb")
	}
}

// TestAntidiag16PastBoundaryPanics pins the panic contract one strand
// past the edge.
func TestAntidiag16PastBoundaryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Antidiag16 accepted m+n == Max16+1")
		}
	}()
	Antidiag16(make([]byte, 2), make([]byte, Max16-1), Options{})
}
