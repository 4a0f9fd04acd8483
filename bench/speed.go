package main

import (
	"runtime"
	"sync"
	"time"
)

// Host speed. On a shared machine the same code runs at very different
// speeds from one half-minute to the next, with every core busy and no
// steal time reported: solves per second swing by 1.7× while a process's
// CPU time stays full. No amount of repetition averages that out across
// runs minutes apart. So every timed interval is bracketed by a reference
// probe, a fixed computation written here that no change to the code
// under test can speed up or slow down, and every reported time is scaled
// to a host on which each round of the probe takes refRound. A time
// measured while the probe ran at half that speed is halved; a rate is
// doubled. The ledger keeps the speed factors beside the metrics.

// refRound is one probe round's duration on the reference host.
const refRound = 5 * time.Millisecond

// refA and refB are the probe's fixed inputs.
var refA, refB = func() ([]byte, []byte) {
	r := newRNG(0, 0)
	return r.dna(1000), r.dna(1000)
}()

// probe is a reference probe of that many rounds: one round is one
// linear-space LCS dynamic program on refA and refB per core.
type probe int

// time runs the probe on every core the program may use, at once, as
// the load does.
func (p probe) time() time.Duration {
	procs := runtime.GOMAXPROCS(0)
	scores := make([]int, procs)
	var wg sync.WaitGroup
	t := time.Now()
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < int(p); i++ {
				scores[c] += refLCS(refA, refB)
			}
		}(c)
	}
	wg.Wait()
	d := time.Since(t)
	for _, s := range scores {
		sink += s
	}
	return d
}

// speedOf is the host speed over an interval bracketed by two probes:
// above 1 when the host was faster than the reference host. A time
// measured in the interval is multiplied by it, a rate divided.
func (p probe) speedOf(before, after time.Duration) float64 {
	return float64(2*time.Duration(p)*refRound) / float64(before+after)
}

// around runs f between two probes and returns the host speed during it.
func (p probe) around(f func()) float64 {
	before := p.time()
	f()
	return p.speedOf(before, p.time())
}

// refLCS is the textbook two-row LCS dynamic program.
func refLCS(a, b []byte) int {
	prev := make([]int32, len(b)+1)
	cur := make([]int32, len(b)+1)
	for i := range a {
		for j := range b {
			v := prev[j+1]
			if cur[j] > v {
				v = cur[j]
			}
			if a[i] == b[j] && prev[j]+1 > v {
				v = prev[j] + 1
			}
			cur[j+1] = v
		}
		prev, cur = cur, prev
	}
	return int(prev[len(b)])
}
