package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"semilocal"
	"semilocal/internal/server"
)

// sizes are the dimensions of every input. fullSizes is the benchmark;
// tinySizes runs the same code paths in a fraction of a second for the
// smoke test.
type sizes struct {
	hotPairs, hotLen, hotBodies, hotBatch int
	fillers, fillerM, fillerN             int
	coldLen, coldBatch                    int
	nearPairs, nearLen, nearEdits         int
	nearBodies, nearBatch                 int
	streamM, groupM, groupP               int
	chunk, appends, scripts               int
	bestWidth, streamWidth                int
	setups                                int
	probe                                 probe // reference probe bracketing every timed interval

	// Ladder inputs.
	solveLen, solveBigLen, bandLen, bandEdits, bandBigEdits, groupBigP int
}

var fullSizes = sizes{
	hotPairs: 256, hotLen: 1024, hotBodies: 256, hotBatch: 16,
	fillers: 4096, fillerM: 64, fillerN: 4032,
	coldLen: 1024, coldBatch: 4,
	nearPairs: 16, nearLen: 32768, nearEdits: 16, nearBodies: 32, nearBatch: 4,
	streamM: 64, groupM: 32, groupP: 16,
	chunk: 256, appends: 8, scripts: 32,
	bestWidth: 256, streamWidth: 128,
	setups: 7, probe: 10,
	solveLen: 1024, solveBigLen: 4096, bandLen: 1_000_000, bandEdits: 16, bandBigEdits: 256, groupBigP: 256,
}

var tinySizes = sizes{
	hotPairs: 8, hotLen: 600, hotBodies: 8, hotBatch: 6,
	fillers: 16, fillerM: 8, fillerN: 40,
	coldLen: 48, coldBatch: 4,
	nearPairs: 2, nearLen: 600, nearEdits: 4, nearBodies: 2, nearBatch: 2,
	streamM: 8, groupM: 16, groupP: 16,
	chunk: 16, appends: 8, scripts: 2,
	bestWidth: 16, streamWidth: 8,
	setups: 2, probe: 1,
	solveLen: 48, solveBigLen: 64, bandLen: 4000, bandEdits: 4, bandBigEdits: 8, groupBigP: 16,
}

// workloads are the traffic mixes, in the order BENCHMARK.json lists
// them.
var workloads = []string{"batch_hot", "batch_cold", "batch_near", "stream_single", "stream_group"}

// reply is the client's view of both response bodies: batch results and
// stream op results carry the fields the checks compare under the same
// names.
type reply struct {
	Results []server.StreamOpResult `json:"results"`
}

// call is one HTTP call of a workload: its body and the check of its
// reply. check returns how many units failed (typed errors, which count
// against fail ratio) and an error only for a wrong answer.
type call struct {
	body  []byte
	check func(r *reply) (failed int, err error)
}

// source is one workload's traffic.
type source struct {
	path  string
	units int // answered units per call: batch requests or stream ops
	next  func(seq int64) call
	// warm are the calls a restarted server answers before it counts as
	// set up; with none, one /healthz round trip suffices.
	warm []call
	// after runs checks deferred past the window (nil: every call was
	// checked inline).
	after func() error
}

// newSource builds a workload's inputs and expected answers from the
// seed. Expected answers come from code off the serving path.
func newSource(name string, seed int64, sz sizes) (*source, error) {
	switch name {
	case "batch_hot":
		return hotSource(seed, sz)
	case "batch_cold":
		return coldSource(seed, sz), nil
	case "batch_near":
		return nearSource(seed, sz)
	case "stream_single":
		return streamSource(seed, sz, [][]byte{newRNG(seed, streamText).dna(sz.streamM)})
	case "stream_group":
		return streamSource(seed, sz, groupPatterns(newRNG(seed, streamText), sz.groupP, sz.groupM))
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// pair is one input pair.
type pair struct{ a, b []byte }

// hotPairs is the batch_hot hot set; the setup's store log holds their
// kernels.
func hotPairs(seed int64, sz sizes) []pair {
	r := newRNG(seed, streamHot)
	out := make([]pair, sz.hotPairs)
	for i := range out {
		out[i] = pair{r.dna(sz.hotLen), r.dna(sz.hotLen)}
	}
	return out
}

// hotKinds are batch_hot's query families; requests cycle through them.
var hotKinds = []string{"score", "string-substring", "substring-string", "suffix-prefix", "prefix-suffix", "best-window"}

// wireQuery fills a random valid query of kind on an m×n pair.
func wireQuery(r *rng, kind string, m, n, width int) server.WireRequest {
	w := server.WireRequest{Kind: kind}
	switch kind {
	case "string-substring":
		w.From, w.To = r.span(n)
	case "substring-string":
		w.From, w.To = r.span(m)
	case "suffix-prefix", "prefix-suffix":
		w.From, w.To = r.intn(m+1), r.intn(n+1)
	case "best-window":
		w.Width = width
	}
	return w
}

// expect answers one query on a kernel solved off the serving path.
func expect(k *semilocal.Kernel, kind string, from, to, width int) (score, at int) {
	switch kind {
	case "string-substring":
		return k.StringSubstring(from, to), 0
	case "substring-string":
		return k.SubstringString(from, to), 0
	case "suffix-prefix":
		return k.SuffixPrefix(from, to), 0
	case "prefix-suffix":
		return k.PrefixSuffix(from, to), 0
	case "best-window":
		best := -1
		for l, s := range k.WindowScores(width) {
			if s > best {
				best, at = s, l
			}
		}
		return best, at
	}
	return k.Score(), 0
}

// referenceKernels solves every pair with row-major combing, the
// sequential reference algorithm, two at a time.
func referenceKernels(pairs []pair) ([]*semilocal.Kernel, error) {
	out := make([]*semilocal.Kernel, len(pairs))
	err := parallel2(len(pairs), func(i int) error {
		k, err := semilocal.Solve(pairs[i].a, pairs[i].b, semilocal.Config{Algorithm: semilocal.RowMajor})
		out[i] = k
		return err
	})
	return out, err
}

// parallel2 runs fn over [0, n) on two goroutines, returning the first
// error.
func parallel2(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				if err := fn(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// want is one expected batch result.
type want struct{ score, from int }

// batchCall encodes a batch and checks its reply against expected
// answers.
func batchCall(reqs []server.WireRequest, wants []want) call {
	body, err := json.Marshal(server.BatchRequest{Requests: reqs})
	if err != nil {
		panic(err) // plain structs of strings and ints always encode
	}
	return call{body: body, check: func(r *reply) (int, error) {
		return checkBatch(reqs, wants, r)
	}}
}

func checkBatch(reqs []server.WireRequest, wants []want, r *reply) (int, error) {
	if len(r.Results) != len(reqs) {
		return 0, fmt.Errorf("%d results for %d requests", len(r.Results), len(reqs))
	}
	failed := 0
	for i, res := range r.Results {
		if res.Error != "" {
			failed++
			continue
		}
		if res.Score != wants[i].score || res.From != wants[i].from {
			return failed, fmt.Errorf("request %d %s: got score %d from %d, want score %d from %d",
				i, brief(reqs[i]), res.Score, res.From, wants[i].score, wants[i].from)
		}
	}
	return failed, nil
}

// brief renders a request for an error message, eliding long inputs.
func brief(v any) string {
	raw, _ := json.Marshal(v)
	var fields map[string]any
	if json.Unmarshal(raw, &fields) != nil {
		return string(raw)
	}
	for k, f := range fields {
		if s, ok := f.(string); ok && len(s) > 48 {
			fields[k] = fmt.Sprintf("%s…(%d bytes)", s[:48], len(s))
		}
	}
	out, _ := json.Marshal(fields)
	return string(out)
}

// hotSource is batch_hot: 16 mixed queries per call over the hot set.
// After the warm pass every request is a cache hit.
func hotSource(seed int64, sz sizes) (*source, error) {
	pairs := hotPairs(seed, sz)
	kernels, err := referenceKernels(pairs)
	if err != nil {
		return nil, err
	}
	request := func(p int, w server.WireRequest) (server.WireRequest, want) {
		w.A, w.B = string(pairs[p].a), string(pairs[p].b)
		score, at := expect(kernels[p], w.Kind, w.From, w.To, w.Width)
		return w, want{score, at}
	}
	r := newRNG(seed, streamHotBodies)
	calls := make([]call, sz.hotBodies)
	for c := range calls {
		reqs := make([]server.WireRequest, sz.hotBatch)
		wants := make([]want, sz.hotBatch)
		for i := range reqs {
			kind := hotKinds[(c*sz.hotBatch+i)%len(hotKinds)]
			reqs[i], wants[i] = request(r.intn(len(pairs)), wireQuery(r, kind, sz.hotLen, sz.hotLen, sz.bestWidth))
		}
		calls[c] = batchCall(reqs, wants)
	}
	var warm []call
	for lo := 0; lo < len(pairs); lo += sz.hotBatch {
		var reqs []server.WireRequest
		var wants []want
		for p := lo; p < len(pairs) && p < lo+sz.hotBatch; p++ {
			w, x := request(p, server.WireRequest{Kind: "score"})
			reqs, wants = append(reqs, w), append(wants, x)
		}
		warm = append(warm, batchCall(reqs, wants))
	}
	return &source{
		path:  "/v1/batch",
		units: sz.hotBatch,
		next:  func(seq int64) call { return calls[seq%int64(len(calls))] },
		warm:  warm,
	}, nil
}

// coldRequests fabricates call seq's never-seen pairs and queries.
func coldRequests(seed int64, seq int64, sz sizes) []server.WireRequest {
	r := newRNG(seed^seq*0x2545F4914F6CDD1D, streamCold)
	reqs := make([]server.WireRequest, sz.coldBatch)
	for i := range reqs {
		reqs[i] = wireQuery(r, "string-substring", sz.coldLen, sz.coldLen, 0)
		reqs[i].A, reqs[i].B = string(r.dna(sz.coldLen)), string(r.dna(sz.coldLen))
	}
	return reqs
}

// coldSample is 1 in coldSampleEvery batch_cold calls, whose answers are
// recomputed after the window.
const coldSampleEvery = 16

// coldSource is batch_cold: every request solves a never-seen pair.
// Pairs are generated per call from (seed, sequence), and a fixed sample
// of replies is checked against reference solves after the window so
// checking stays off the measured path.
func coldSource(seed int64, sz sizes) *source {
	type sampled struct {
		seq    int64
		scores []int
	}
	var mu sync.Mutex
	var samples []sampled
	next := func(seq int64) call {
		reqs := coldRequests(seed, seq, sz)
		body, err := json.Marshal(server.BatchRequest{Requests: reqs})
		if err != nil {
			panic(err)
		}
		return call{body: body, check: func(r *reply) (int, error) {
			if len(r.Results) != len(reqs) {
				return 0, fmt.Errorf("%d results for %d requests", len(r.Results), len(reqs))
			}
			failed := 0
			scores := make([]int, len(reqs))
			for i, res := range r.Results {
				scores[i] = res.Score
				if res.Error != "" {
					failed++
					scores[i] = -1
				}
			}
			if seq%coldSampleEvery == 0 {
				mu.Lock()
				samples = append(samples, sampled{seq, scores})
				mu.Unlock()
			}
			return failed, nil
		}}
	}
	after := func() error {
		mu.Lock()
		defer mu.Unlock()
		return parallel2(len(samples), func(i int) error {
			s := samples[i]
			for j, w := range coldRequests(seed, s.seq, sz) {
				if s.scores[j] < 0 {
					continue
				}
				k, err := semilocal.Solve([]byte(w.A), []byte(w.B), semilocal.Config{Algorithm: semilocal.RowMajor})
				if err != nil {
					return err
				}
				if got, want := s.scores[j], k.StringSubstring(w.From, w.To); got != want {
					return fmt.Errorf("call %d request %d %s: got score %d, want %d", s.seq, j, brief(w), got, want)
				}
			}
			return nil
		})
	}
	return &source{path: "/v1/batch", units: sz.coldBatch, next: next, after: after}
}

// nearSource is batch_near: score queries on near-duplicate pairs, all
// answered by the banded path. Expected scores come from the
// bit-parallel LCS, which shares no code with internal/banded.
func nearSource(seed int64, sz sizes) (*source, error) {
	r := newRNG(seed, streamNear)
	pairs := make([]pair, sz.nearPairs)
	for i := range pairs {
		a := r.dna(sz.nearLen)
		pairs[i] = pair{a, r.mutate(a, sz.nearEdits)}
	}
	scores := make([]int, len(pairs))
	if err := parallel2(len(pairs), func(i int) error {
		scores[i] = semilocal.GeneralBitLCS(pairs[i].a, pairs[i].b, 1)
		return nil
	}); err != nil {
		return nil, err
	}
	br := newRNG(seed, streamNearBodies)
	calls := make([]call, sz.nearBodies)
	for c := range calls {
		reqs := make([]server.WireRequest, sz.nearBatch)
		wants := make([]want, sz.nearBatch)
		for i := range reqs {
			p := br.intn(len(pairs))
			reqs[i] = server.WireRequest{A: string(pairs[p].a), B: string(pairs[p].b), Kind: "score"}
			wants[i] = want{score: scores[p]}
		}
		calls[c] = batchCall(reqs, wants)
	}
	return &source{
		path:  "/v1/batch",
		units: sz.nearBatch,
		next:  func(seq int64) call { return calls[seq%int64(len(calls))] },
	}, nil
}

// streamKinds are the query families a stream script cycles through.
var streamKinds = []string{"score", "string-substring", "best-window"}

// streamSource is stream_single (one pattern) or stream_group (several):
// scripts of appends, slides after the fifth append on, and a query
// after each append. Every query is checked against a row-major solve of
// its pattern and the window it addresses.
func streamSource(seed int64, sz sizes, patterns [][]byte) (*source, error) {
	r := newRNG(seed, streamScripts)
	calls := make([]call, sz.scripts)
	units := 0
	for s := range calls {
		req := server.StreamRequest{}
		if len(patterns) == 1 {
			req.Pattern = string(patterns[0])
		} else {
			for _, p := range patterns {
				req.Patterns = append(req.Patterns, string(p))
			}
		}
		var wants []want
		var windows []int // expected window length after each op
		var chunks [][]byte
		lo := 0
		for i := 0; i < sz.appends; i++ {
			chunk := r.dna(sz.chunk)
			chunks = append(chunks, chunk)
			req.Ops = append(req.Ops, server.WireOp{Op: "append", Chunk: string(chunk)})
			wants, windows = append(wants, want{}), append(windows, (len(chunks)-lo)*sz.chunk)
			if i >= 4 {
				lo++
				req.Ops = append(req.Ops, server.WireOp{Op: "slide", N: 1})
				wants, windows = append(wants, want{}), append(windows, (len(chunks)-lo)*sz.chunk)
			}
			var text []byte
			for _, c := range chunks[lo:] {
				text = append(text, c...)
			}
			pat := (s*sz.appends + i) % len(patterns)
			wq := wireQuery(r, streamKinds[i%len(streamKinds)], len(patterns[pat]), len(text), sz.streamWidth)
			op := server.WireOp{Op: "query", Kind: wq.Kind, From: wq.From, To: wq.To, Width: wq.Width}
			if len(patterns) > 1 {
				op.Pat = pat
			}
			k, err := semilocal.Solve(patterns[pat], text, semilocal.Config{Algorithm: semilocal.RowMajor})
			if err != nil {
				return nil, err
			}
			score, at := expect(k, op.Kind, op.From, op.To, op.Width)
			req.Ops = append(req.Ops, op)
			wants, windows = append(wants, want{score, at}), append(windows, len(text))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		ops := req.Ops
		calls[s] = call{body: body, check: func(rp *reply) (int, error) {
			return checkScript(ops, wants, windows, rp)
		}}
		units = len(ops)
	}
	return &source{
		path:  "/v1/stream",
		units: units,
		next:  func(seq int64) call { return calls[seq%int64(len(calls))] },
	}, nil
}

func checkScript(ops []server.WireOp, wants []want, windows []int, r *reply) (int, error) {
	if len(r.Results) != len(ops) {
		return 0, fmt.Errorf("%d results for %d ops", len(r.Results), len(ops))
	}
	failed := 0
	for i, res := range r.Results {
		if res.Error != "" {
			failed++
			continue
		}
		if res.Window != windows[i] {
			return failed, fmt.Errorf("op %d %s: window %d bytes, want %d", i, brief(ops[i]), res.Window, windows[i])
		}
		if ops[i].Op == "query" && (res.Score != wants[i].score || res.From != wants[i].from) {
			return failed, fmt.Errorf("op %d %s: got score %d from %d, want score %d from %d",
				i, brief(ops[i]), res.Score, res.From, wants[i].score, wants[i].from)
		}
	}
	return failed, nil
}
