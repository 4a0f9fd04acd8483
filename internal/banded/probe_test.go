package banded

// The probe's equivalence wall. ProbeBand searches each anchor near its
// own position before its whole tolerance window; probeBandFull below
// searches the whole window only, as the probe's definition reads. The
// two must agree on every input, so routing never depends on which
// window found an anchor.

import (
	"bytes"
	"math/rand"
	"testing"
)

// probeBandFull is the reference probe: every anchor searched in its
// whole tolerance window, clamped to tb.
func probeBandFull(a, b []byte, maxK int) Probe {
	ta, tb, pre, suf := trimCommon(a, b)
	p := Probe{Prefix: pre, Suffix: suf, M: len(ta), N: len(tb)}
	tol := maxK
	if tol < minTolerance {
		tol = minTolerance
	}
	if tol > maxTolerance {
		tol = maxTolerance
	}
	if p.M <= 4*tol || p.N == 0 {
		return p
	}
	for s := 0; s < anchorCount; s++ {
		pos := (s + 1) * (p.M - anchorLen) / (anchorCount + 1)
		win := ta[pos : pos+anchorLen]
		lo, hi := pos-tol, pos+tol+anchorLen
		if lo < 0 {
			lo = 0
		}
		if hi > p.N {
			hi = p.N
		}
		p.Anchors++
		if lo >= hi || !bytes.Contains(tb[lo:hi], win) {
			p.Mismatched++
		}
	}
	return p
}

// probeBudgets spans the tolerance clamps: below minTolerance, inside
// the range, and above maxTolerance.
var probeBudgets = []int{-1, 0, 16, 32, 100, 300, 1024, 5000}

func checkProbe(t *testing.T, name string, a, b []byte, maxK int) {
	t.Helper()
	if got, want := ProbeBand(a, b, maxK), probeBandFull(a, b, maxK); got != want {
		t.Fatalf("%s (|a|=%d, |b|=%d, maxK=%d): ProbeBand = %+v, full-window probe = %+v", name, len(a), len(b), maxK, got, want)
	}
}

// randomBytes returns n bytes drawn from the first sigma letters.
func randomBytes(r *rand.Rand, n, sigma int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte('A' + r.Intn(sigma))
	}
	return s
}

// editCopy returns a copy of a with edits taken from script, three
// bytes per edit: the kind (substitute, insert or delete) and a
// big-endian position, wrapped to the string.
func editCopy(a, script []byte) []byte {
	b := append([]byte(nil), a...)
	for ; len(script) >= 3; script = script[3:] {
		if len(b) == 0 {
			b = append(b, script[1])
			continue
		}
		at := (int(script[1])<<8 | int(script[2])) % len(b)
		switch script[0] % 3 {
		case 0:
			b[at] ^= 1 + script[2]%7
		case 1:
			b = append(b[:at], append([]byte{script[1]}, b[at:]...)...)
		default:
			b = append(b[:at], b[at+1:]...)
		}
	}
	return b
}

type probeCase struct {
	name string
	a, b []byte
}

// TestProbeMatchesFullWindow runs the differential over random,
// near-duplicate, shifted, periodic and short pairs, and pairs whose
// anchors clamp at either end of b, including windows that lie wholly
// past its end (lo ≥ hi).
func TestProbeMatchesFullWindow(t *testing.T) {
	r := rand.New(rand.NewSource(0x9e0be))
	periodic := bytes.Repeat([]byte("AC"), 4000)
	for _, maxK := range probeBudgets {
		for it := 0; it < 20; it++ {
			n := 200 + r.Intn(6000)
			a := randomBytes(r, n, 4)
			script := make([]byte, 3*r.Intn(40))
			r.Read(script)
			cases := []probeCase{
				{"random", a, randomBytes(r, n+r.Intn(100)-50, 4)},
				{"binary", randomBytes(r, n, 2), randomBytes(r, n, 2)},
				{"near-duplicate", a, editCopy(a, script)},
				{"periodic", periodic[:n], editCopy(periodic[1:n], script)},
				{"periodic vs shifted", periodic[:n], periodic[1 : 1+n/2]},
				{"short b", a, a[:r.Intn(64)]},
				{"b past anchors", a, append(a[:1:1], randomBytes(r, r.Intn(200), 4)...)},
				{"short", a[:r.Intn(200)], editCopy(a[:r.Intn(200)], script)},
				{"empty b", a, nil},
			}
			// Shift b against a by exactly the near and the full drift
			// and one byte past each, so anchors sit on the windows'
			// edges. The last byte differs, or trimming the common
			// suffix would swallow every anchor.
			tol := min(max(maxK, minTolerance), maxTolerance)
			for _, d := range []int{anchorLen, anchorLen + 1, tol, tol + 1} {
				if d >= n {
					continue
				}
				right := append(randomBytes(r, d, 4), a...)
				left := append([]byte(nil), a[d:]...)
				right[len(right)-1], left[len(left)-1] = 'z', 'z'
				cases = append(cases, probeCase{"shifted right", a, right}, probeCase{"shifted left", a, left})
			}
			for _, c := range cases {
				checkProbe(t, c.name, c.a, c.b, maxK)
				checkProbe(t, c.name+" swapped", c.b, c.a, maxK)
			}
		}
	}
}

// FuzzProbeBand compares ProbeBand with the full-window probe on
// fuzzer-chosen pairs, and on a with b read as an edit script
// (editCopy), which keeps the pair near-duplicate so that anchors are
// found near home, far from it, and not at all.
func FuzzProbeBand(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	a := randomBytes(r, 3000, 4)
	f.Add(a, randomBytes(r, 3000, 4), 64)
	f.Add(a, []byte{0, 1, 0, 1, 4, 0, 2, 8, 0, 1, 2, 3}, 64)
	f.Add(bytes.Repeat([]byte("AC"), 1500), []byte("CACA"), 32)
	f.Add(a, a[:40], 0)
	f.Add(a[:100], a[:90], 2000)
	f.Fuzz(func(t *testing.T, a, b []byte, maxK int) {
		if len(a) > 1<<14 {
			a = a[:1<<14]
		}
		if len(b) > 1<<14 {
			b = b[:1<<14]
		}
		maxK %= 2 * maxTolerance
		checkProbe(t, "pair", a, b, maxK)
		checkProbe(t, "edited", a, editCopy(a, b), maxK)
	})
}

// TestProbeMiddles pins the split the dispatcher relies on: the probe's
// Prefix and Suffix are the longest common affixes, the middles fill
// the rest, and the bounded LCS of the middles plus Prefix+Suffix is
// the bounded LCS of the whole pair, under the same budget.
func TestProbeMiddles(t *testing.T) {
	r := rand.New(rand.NewSource(0x9e0bf))
	for it := 0; it < 300; it++ {
		a := randomBytes(r, r.Intn(400), 4)
		script := make([]byte, 3*r.Intn(8))
		r.Read(script)
		b := editCopy(a, script)
		if it%5 == 0 {
			b = randomBytes(r, r.Intn(400), 4)
		}
		p := ProbeBand(a, b, 64)
		if p.Prefix+p.M+p.Suffix != len(a) || p.Prefix+p.N+p.Suffix != len(b) {
			t.Fatalf("probe %+v does not split |a|=%d, |b|=%d", p, len(a), len(b))
		}
		ma, mb := a[p.Prefix:p.Prefix+p.M], b[p.Prefix:p.Prefix+p.N]
		if !bytes.Equal(a[:p.Prefix], b[:p.Prefix]) || !bytes.Equal(a[len(a)-p.Suffix:], b[len(b)-p.Suffix:]) {
			t.Fatalf("probe %+v: affixes differ", p)
		}
		if len(ma) > 0 && len(mb) > 0 && (ma[0] == mb[0] || ma[len(ma)-1] == mb[len(mb)-1]) {
			t.Fatalf("probe %+v: affixes not maximal", p)
		}
		for _, maxD := range []int{0, 4, 16, 1 << 10} {
			want, wantOK := LCSScoreBounded(a, b, maxD)
			got, ok := LCSScoreBounded(ma, mb, maxD)
			if ok != wantOK || (ok && got+p.Prefix+p.Suffix != want) {
				t.Fatalf("maxD=%d: middles give (%d, %v) + %d, whole pair (%d, %v)", maxD, got, ok, p.Prefix+p.Suffix, want, wantOK)
			}
		}
	}
}
