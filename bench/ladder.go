package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"semilocal"
	"semilocal/internal/banded"
	"semilocal/internal/core"
	"semilocal/internal/parallel"
	"semilocal/internal/query"
	"semilocal/internal/server"
	"semilocal/internal/steadyant"
	"semilocal/internal/store"
	"semilocal/internal/stream"
)

// The ladder times calls into the exported functions of each module,
// one row per call shape, apart from any HTTP traffic. A row's value is
// the median time per call over its samples.

// row is one timed call.
type row struct {
	name  string
	per   int          // calls per sample (0 means 1)
	prep  func()       // untimed set-up before each sample; nil for none
	run   func()       // the timed calls
	check func() error // validates the row's output once, before timing
}

// rowStats is one measured row: per-call time in the metric's unit, and
// heap allocations per call.
type rowStats struct {
	summary
	allocs, bytes float64
}

const (
	minSamples = 5
	maxSamples = 1000
)

// sink keeps results of timed calls observable, so no call is dead code.
var sink int

// measure samples r for at least budget and minSamples samples, then
// counts allocations over three more samples between memory-statistics
// reads, outside the timed ones.
func measure(r row, unit string, budget time.Duration) rowStats {
	per := max(r.per, 1)
	scale := map[string]float64{"ns": 1e9, "us": 1e6, "ms": 1e3}[unit]
	var xs []float64
	deadline := time.Now().Add(budget)
	for len(xs) < minSamples || (len(xs) < maxSamples && time.Now().Before(deadline)) {
		if r.prep != nil {
			r.prep()
		}
		t := time.Now()
		r.run()
		xs = append(xs, time.Since(t).Seconds()*scale/float64(per))
	}
	var before, after runtime.MemStats
	var mallocs, total uint64
	const allocRuns = 3
	for i := 0; i < allocRuns; i++ {
		if r.prep != nil {
			r.prep()
		}
		runtime.ReadMemStats(&before)
		r.run()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		total += after.TotalAlloc - before.TotalAlloc
	}
	calls := float64(allocRuns * per)
	return rowStats{summary: summarize(xs), allocs: float64(mallocs) / calls, bytes: float64(total) / calls}
}

// decodeWire is the serving tier's request decode: strict JSON into the
// wire type, then every input resolved to bytes from its text or base64
// spelling.
func decodeWire(path string, body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	resolve := func(text, b64 string) error {
		if b64 == "" {
			sink += len([]byte(text))
			return nil
		}
		raw, err := base64.StdEncoding.DecodeString(b64)
		sink += len(raw)
		return err
	}
	var err error
	if path == "/v1/batch" {
		var br server.BatchRequest
		if err = dec.Decode(&br); err != nil {
			return err
		}
		for _, w := range br.Requests {
			err = errors.Join(err, resolve(w.A, w.A64), resolve(w.B, w.B64))
		}
	} else {
		var sr server.StreamRequest
		if err = dec.Decode(&sr); err != nil {
			return err
		}
		err = resolve(sr.Pattern, sr.Pattern64)
		for _, p := range sr.Patterns {
			err = errors.Join(err, resolve(p, ""))
		}
		for _, op := range sr.Ops {
			err = errors.Join(err, resolve(op.Chunk, op.Chunk64))
		}
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return err
}

// encodeWire is the serving tier's response encode.
func encodeWire(buf *bytes.Buffer, v any) error {
	buf.Reset()
	return json.NewEncoder(buf).Encode(v)
}

// wireRow times the decode of one request body plus the encode of its
// response for a workload, against which the workload's median latency
// is compared.
func wireRow(path string, body, resp []byte) (row, error) {
	var v any = &server.BatchResponse{}
	if path != "/v1/batch" {
		v = &server.StreamResponse{}
	}
	if err := json.Unmarshal(resp, v); err != nil {
		return row{}, err
	}
	var buf bytes.Buffer
	return row{
		name: "wire",
		run: func() {
			sink += len(body)
			if decodeWire(path, body) == nil && encodeWire(&buf, v) == nil {
				sink += buf.Len()
			}
		},
		check: func() error { return errors.Join(decodeWire(path, body), encodeWire(&buf, v)) },
	}, nil
}

// ladder builds every row. logDir holds the restart log; tmp is scratch
// space for the row-owned store. The returned cleanup releases the
// engine, pool and store the rows share.
func ladder(seed int64, sz sizes, tmp, logDir string) ([]row, func(), error) {
	r := newRNG(seed, streamLadder)
	ctx := context.Background()
	var rows []row
	add := func(rs ...row) { rows = append(rows, rs...) }
	rowmajor := core.Config{Algorithm: core.RowMajor}
	simd := core.Config{Algorithm: core.AntidiagBranchless}

	hot := hotPairs(seed, sz)
	h := hot[0]
	ref, err := core.Solve(h.a, h.b, rowmajor)
	if err != nil {
		return nil, nil, err
	}

	// internal/server: wire framing and the ring's routing key.
	var reqs, reqs64 []server.WireRequest
	var results []server.WireResult
	for i := 0; i < sz.hotBatch; i++ {
		p := hot[i%len(hot)]
		w := wireQuery(r, hotKinds[i%len(hotKinds)], sz.hotLen, sz.hotLen, sz.bestWidth)
		w64 := w
		w.A, w.B = string(p.a), string(p.b)
		w64.A64, w64.B64 = base64.StdEncoding.EncodeToString(p.a), base64.StdEncoding.EncodeToString(p.b)
		reqs, reqs64 = append(reqs, w), append(reqs64, w64)
		results = append(results, server.WireResult{Score: sz.hotLen/2 + r.intn(sz.hotLen/4), From: w.Width, Shard: i % 2})
	}
	near := newRNG(seed, streamNear).dna(sz.nearLen)
	nearB := r.mutate(near, sz.nearEdits)
	var nearReqs []server.WireRequest
	for i := 0; i < sz.nearBatch; i++ {
		nearReqs = append(nearReqs, server.WireRequest{A: string(near), B: string(nearB), Kind: "score"})
	}
	for _, c := range []struct {
		name string
		reqs []server.WireRequest
	}{{"server.decode_hot_us", reqs}, {"server.decode_hot_b64_us", reqs64}, {"server.decode_near_ms", nearReqs}} {
		body, err := json.Marshal(server.BatchRequest{Requests: c.reqs})
		if err != nil {
			return nil, nil, err
		}
		add(row{
			name:  c.name,
			run:   func() { sink += len(body); decodeWire("/v1/batch", body) },
			check: func() error { return decodeWire("/v1/batch", body) },
		})
	}
	var encBuf bytes.Buffer
	resp := server.BatchResponse{Results: results}
	add(row{
		name: "server.encode_hot_us",
		run:  func() { encodeWire(&encBuf, resp) },
		check: func() error {
			var back server.BatchResponse
			return errors.Join(encodeWire(&encBuf, resp), json.Unmarshal(encBuf.Bytes(), &back))
		},
	})
	add(row{
		name: "server.route_key_us",
		run:  func() { sink += int(store.KeyOf(h.a, h.b)[0]) },
		check: func() error {
			if store.KeyOf(h.a, h.b) != store.KeyOf(h.a, h.b) || store.KeyOf(h.a, h.b) == store.KeyOf(h.b, h.a) {
				return errors.New("content key is not a deterministic function of the ordered pair")
			}
			return nil
		},
	})

	// internal/query: the engine's cache, batch front end, sessions and
	// streams, under the serving configuration without a store.
	eng := query.NewEngine(serverConfig(nil, nil).Engine)
	pool := parallel.NewPool(2)
	var st *store.Store
	cleanup := func() {
		eng.Close()
		pool.Close()
		if st != nil {
			st.Close()
		}
	}
	fail := func(err error) ([]row, func(), error) {
		cleanup()
		return nil, nil, err
	}
	// sessScore and kernelScore check a handle on the hot pair against
	// the reference kernel.
	sessScore := func(s *query.Session, err error) error {
		if err != nil {
			return err
		}
		if s.Score() != ref.Score() {
			return fmt.Errorf("session score %d, want %d", s.Score(), ref.Score())
		}
		return nil
	}
	kernelScore := func(k *core.Kernel, err error) error {
		if err != nil {
			return err
		}
		return sessScore(query.NewSession(k), nil)
	}
	add(row{
		name:  "query.acquire_hit_us",
		run:   func() { eng.Acquire(ctx, h.a, h.b) },
		check: func() error { return sessScore(eng.Acquire(ctx, h.a, h.b)) },
	})
	var fresh pair
	add(row{
		name: "query.acquire_miss_ms",
		prep: func() { fresh = pair{r.dna(sz.hotLen), r.dna(sz.hotLen)} },
		run:  func() { eng.Acquire(ctx, fresh.a, fresh.b) },
		check: func() error {
			p := pair{r.dna(sz.hotLen), r.dna(sz.hotLen)}
			s, err := eng.Acquire(ctx, p.a, p.b)
			if err != nil {
				return err
			}
			k, err := core.Solve(p.a, p.b, rowmajor)
			if err != nil {
				return err
			}
			if s.Score() != k.Score() {
				return fmt.Errorf("session score %d, want %d", s.Score(), k.Score())
			}
			return nil
		},
	})
	dup := make([]query.Request, 64)
	for i := range dup {
		from, to := r.span(len(h.b))
		dup[i] = query.Request{A: h.a, B: h.b, Kind: query.StringSubstring, From: from, To: to}
	}
	add(row{
		name: "query.batch_dup64_us",
		run:  func() { eng.BatchSolve(ctx, dup) },
		check: func() error {
			for i, res := range eng.BatchSolve(ctx, dup) {
				if want := ref.StringSubstring(dup[i].From, dup[i].To); res.Err != nil || res.Score != want {
					return fmt.Errorf("request %d: got %d (%v), want %d", i, res.Score, res.Err, want)
				}
			}
			return nil
		},
	})
	kh, err := core.Solve(h.a, h.b, simd)
	if err != nil {
		return fail(err)
	}
	sess := query.NewSession(kh)
	const queriesPerSample = 256
	m, n := len(h.a), len(h.b)
	for _, q := range []struct {
		name     string
		got, ref func(x, y int) int
		xn, yn   int
		ordered  bool
	}{
		{"query.session_score_ns", func(int, int) int { return sess.Score() }, func(int, int) int { return ref.Score() }, 0, 0, false},
		{"query.session_string_substring_ns", sess.StringSubstring, ref.StringSubstring, n, n, true},
		{"query.session_substring_string_ns", sess.SubstringString, ref.SubstringString, m, m, true},
		{"query.session_suffix_prefix_ns", sess.SuffixPrefix, ref.SuffixPrefix, m, n, false},
		{"query.session_prefix_suffix_ns", sess.PrefixSuffix, ref.PrefixSuffix, m, n, false},
	} {
		xs, ys := make([]int, queriesPerSample), make([]int, queriesPerSample)
		for i := range xs {
			if q.ordered {
				xs[i], ys[i] = r.span(q.xn)
			} else {
				xs[i], ys[i] = r.intn(q.xn+1), r.intn(q.yn+1)
			}
		}
		add(row{
			name: q.name,
			per:  queriesPerSample,
			run: func() {
				for i := range xs {
					sink += q.got(xs[i], ys[i])
				}
			},
			check: func() error {
				for i := range xs {
					if got, want := q.got(xs[i], ys[i]), q.ref(xs[i], ys[i]); got != want {
						return fmt.Errorf("(%d,%d): got %d, want %d", xs[i], ys[i], got, want)
					}
				}
				return nil
			},
		})
	}
	add(row{
		name: "query.session_windows_us",
		run:  func() { sink += len(sess.WindowScores(sz.bestWidth)) },
		check: func() error {
			if !slices.Equal(sess.WindowScores(sz.bestWidth), ref.WindowScores(sz.bestWidth)) {
				return errors.New("window scores differ from the reference kernel")
			}
			return nil
		},
	})
	add(row{
		name: "query.session_best_window_us",
		run:  func() { l, s := sess.BestWindow(sz.bestWidth); sink += l + s },
		check: func() error {
			l, s := sess.BestWindow(sz.bestWidth)
			if ws, wl := expect(ref, "best-window", 0, 0, sz.bestWidth); l != wl || s != ws {
				return fmt.Errorf("best window %d at %d, want %d at %d", s, l, ws, wl)
			}
			return nil
		},
	})
	var unprepared *core.Kernel
	add(row{
		name:  "query.prepare_us",
		prep:  func() { unprepared = core.NewKernel(kh.Permutation(), m, n) },
		run:   func() { query.NewSession(unprepared) },
		check: func() error { return sessScore(query.NewSession(core.NewKernel(kh.Permutation(), m, n)), nil) },
	})
	pattern := r.dna(sz.streamM)
	chunks := make([][]byte, sz.appends)
	for i := range chunks {
		chunks[i] = r.dna(sz.chunk)
	}
	patterns := groupPatterns(r, sz.groupP, sz.groupM)
	// scriptEnd is where a stream script left off: its last query, the
	// answer, and the pattern and window that query addressed.
	type scriptEnd struct {
		req         query.Request
		res         query.Result
		pat, window []byte
	}
	// script runs the stream workloads' script shape through one handle:
	// append every chunk, slide after the fifth on, query after each.
	script := func(apply func(slide bool, chunk []byte) error, ask func(i int, req query.Request) query.Result, pats [][]byte) (scriptEnd, error) {
		var end scriptEnd
		for i, c := range chunks {
			if err := apply(false, c); err != nil {
				return end, err
			}
			end.window = append(end.window, c...)
			if i >= 4 {
				if err := apply(true, nil); err != nil {
					return end, err
				}
				end.window = end.window[len(chunks[i-4]):]
			}
			end.req = []query.Request{
				{Kind: query.Score},
				{Kind: query.StringSubstring, To: len(end.window) / 2},
				{Kind: query.BestWindow, Width: sz.streamWidth},
			}[i%3]
			end.pat = pats[i%len(pats)]
			end.res = ask(i%len(pats), end.req)
		}
		return end, end.res.Err
	}
	checkEnd := func(end scriptEnd, err error) error {
		if err != nil {
			return err
		}
		k, err := core.Solve(end.pat, end.window, rowmajor)
		if err != nil {
			return err
		}
		score, from := expect(k, end.req.Kind.String(), end.req.From, end.req.To, end.req.Width)
		if end.res.Score != score || end.res.From != from {
			return fmt.Errorf("last %s query: %d at %d, want %d at %d", end.req.Kind, end.res.Score, end.res.From, score, from)
		}
		return nil
	}
	runStream := func() (scriptEnd, error) {
		s, err := eng.OpenStream(pattern)
		if err != nil {
			return scriptEnd{}, err
		}
		return script(func(slide bool, c []byte) error {
			if slide {
				return s.Slide(ctx, 1)
			}
			return s.Append(ctx, c)
		}, func(_ int, req query.Request) query.Result { return s.Query(req) }, [][]byte{pattern})
	}
	runGroup := func() (scriptEnd, error) {
		g, err := eng.OpenStreamGroup(patterns)
		if err != nil {
			return scriptEnd{}, err
		}
		return script(func(slide bool, c []byte) error {
			if slide {
				return g.Slide(ctx, 1)
			}
			return g.Append(ctx, c)
		}, g.Query, patterns)
	}
	add(row{name: "query.stream_script_ms", run: func() { runStream() }, check: func() error { return checkEnd(runStream()) }})
	add(row{name: "query.group_script_ms", run: func() { runGroup() }, check: func() error { return checkEnd(runGroup()) }})

	// internal/core: one solve per algorithm.
	sa, sb := r.dna(sz.solveLen), r.dna(sz.solveLen)
	bigA, bigB := r.dna(sz.solveBigLen), r.dna(sz.solveBigLen)
	solveRow := func(name string, a, b []byte, cfg core.Config) row {
		return row{
			name: name,
			run:  func() { core.Solve(a, b, cfg) },
			check: func() error {
				got, err := core.Solve(a, b, cfg)
				if err != nil {
					return err
				}
				want, err := core.Solve(a, b, rowmajor)
				if err != nil {
					return err
				}
				if !slices.Equal(got.Permutation().RowToCol(), want.Permutation().RowToCol()) {
					return errors.New("kernel differs from the row-major reference")
				}
				return nil
			},
		}
	}
	for _, alg := range core.Algorithms() {
		add(solveRow("core.solve_ms."+alg.String()+".1024", sa, sb, core.Config{Algorithm: alg}))
	}
	add(solveRow("core.solve_ms.semi_antidiag_simd.4096", bigA, bigB, simd))

	// internal/steadyant: one kernel composition of two stream-shaped
	// kernels, pattern against two adjacent texts.
	x1, x2 := r.dna(2*sz.solveLen), r.dna(2*sz.solveLen)
	k1, err1 := core.Solve(x1, pattern, simd)
	k2, err2 := core.Solve(x2, pattern, simd)
	if err := errors.Join(err1, err2); err != nil {
		return fail(err)
	}
	compose := func() []int32 {
		return steadyant.Compose(k1.Permutation(), k2.Permutation(), len(x1), len(x2), len(pattern), steadyant.Multiply).RowToCol()
	}
	add(row{
		name: "steadyant.compose_us",
		run:  func() { sink += len(compose()) },
		check: func() error {
			want, err := core.Solve(append(append([]byte(nil), x1...), x2...), pattern, rowmajor)
			if err != nil {
				return err
			}
			if !slices.Equal(compose(), want.Permutation().RowToCol()) {
				return errors.New("composed kernel differs from the direct solve")
			}
			return nil
		},
	})

	// internal/store: reads and appends on a store of its own, and the
	// open scan of the restart log.
	st, err = store.Open(filepath.Join(tmp, "ladder-store"), store.Config{NoSync: true})
	if err != nil {
		return fail(err)
	}
	keys := make([]store.Key, min(64, len(hot)))
	for i := range keys {
		k, err := core.Solve(hot[i].a, hot[i].b, simd)
		if err != nil {
			return fail(err)
		}
		keys[i] = store.KeyOf(hot[i].a, hot[i].b)
		if err := st.Put(keys[i], k); err != nil {
			return fail(err)
		}
	}
	next := 0
	add(row{
		name:  "store.get_us",
		prep:  func() { next++ },
		run:   func() { st.Get(keys[next%len(keys)]) },
		check: func() error { return kernelScore(st.Get(keys[0])) },
	})
	var putKey store.Key
	add(row{
		name: "store.put_us",
		prep: func() {
			next++
			putKey = store.KeyOf(binary.AppendUvarint(nil, uint64(next)), nil)
		},
		run: func() { st.Put(putKey, kh) },
		check: func() error {
			key := store.KeyOf([]byte("put check"), nil)
			if err := st.Put(key, kh); err != nil {
				return err
			}
			return kernelScore(st.Get(key))
		},
	})
	add(row{
		name: "store.open_ms",
		run: func() {
			if s, err := store.Open(logDir, store.Config{NoSync: true}); err == nil {
				s.Close()
			}
		},
		check: func() error {
			s, err := store.Open(logDir, store.Config{NoSync: true})
			if err != nil {
				return err
			}
			defer s.Close()
			if s.Len() != len(hot)+sz.fillers {
				return fmt.Errorf("restart log holds %d kernels, want %d", s.Len(), len(hot)+sz.fillers)
			}
			return nil
		},
	})

	// internal/banded: the dispatcher's probe on both shapes, the LCS
	// BFS on a batch_near pair, and edit distance at n=10⁶.
	probeRow := func(name string, a, b []byte, routable bool) row {
		maxK := banded.AutoMaxK(len(a), len(b))
		return row{
			name: name,
			run:  func() { sink += banded.ProbeBand(a, b, maxK).Anchors },
			check: func() error {
				if banded.ProbeBand(a, b, maxK).Routable(maxK) != routable {
					return fmt.Errorf("probe routes %d+%d-byte pair wrongly (want routable=%v)", len(a), len(b), routable)
				}
				return nil
			},
		}
	}
	add(probeRow("banded.probe_similar_us", near, nearB, true), probeRow("banded.probe_divergent_us", h.a, h.b, false))
	maxD := 2 * banded.AutoMaxK(len(near), len(nearB))
	add(row{
		name: "banded.lcs_ms.n32768.k16",
		run:  func() { s, _ := banded.LCSScoreBounded(near, nearB, maxD); sink += s },
		check: func() error {
			got, ok := banded.LCSScoreBounded(near, nearB, maxD)
			if want := semilocal.GeneralBitLCS(near, nearB, 1); !ok || got != want {
				return fmt.Errorf("banded LCS %d (ok=%v), want %d", got, ok, want)
			}
			return nil
		},
	})
	long := r.dna(sz.bandLen)
	for _, k := range []struct {
		name  string
		edits int
	}{{"banded.distance_ms.n1e6.k16", sz.bandEdits}, {"banded.distance_ms.n1e6.k256", sz.bandBigEdits}} {
		b := r.substitute(long, k.edits)
		add(row{
			name: k.name,
			run:  func() { d, _ := banded.DistanceBounded(long, b, k.edits); sink += d },
			check: func() error {
				if d, ok := banded.DistanceBounded(long, b, k.edits); !ok || d != k.edits {
					return fmt.Errorf("distance %d (ok=%v), want %d", d, ok, k.edits)
				}
				return nil
			},
		})
	}

	// internal/stream: one steady-state round (slide one chunk, append
	// one) of a single session and of groups of 1 and 256 patterns.
	round := func(slide func(int) error, appendChunk func([]byte) error, i int) error {
		return errors.Join(slide(1), appendChunk(chunks[i%len(chunks)]))
	}
	checkRound := func(snapshot func(int) *core.Kernel, pats [][]byte, slide func(int) error, appendChunk func([]byte) error) error {
		if err := round(slide, appendChunk, 4); err != nil {
			return err
		}
		window := bytes.Join(chunks[1:5], nil)
		for _, i := range []int{0, len(pats) - 1} {
			want, err := core.Solve(pats[i], window, rowmajor)
			if err != nil {
				return err
			}
			if !slices.Equal(snapshot(i).Permutation().RowToCol(), want.Permutation().RowToCol()) {
				return fmt.Errorf("pattern %d: streamed kernel differs from the direct solve", i)
			}
		}
		return nil
	}
	newSession := func() (*stream.Session, error) {
		s, err := stream.New(pattern, stream.Config{})
		for i := 0; err == nil && i < 4; i++ {
			err = s.Append(chunks[i])
		}
		return s, err
	}
	steady, err := newSession()
	if err != nil {
		return fail(err)
	}
	rounds := 0
	add(row{
		name: "stream.append_steady_us",
		run:  func() { rounds++; round(steady.Slide, steady.Append, rounds) },
		check: func() error {
			s, err := newSession()
			if err != nil {
				return err
			}
			return checkRound(func(int) *core.Kernel { return s.Kernel() }, [][]byte{pattern}, s.Slide, s.Append)
		},
	})
	newGroup := func(p int) (*stream.Group, [][]byte, error) {
		pats := groupPatterns(newRNG(seed, streamLadder), p, sz.groupM)
		g, err := stream.NewGroup(pats, stream.GroupConfig{Pool: pool})
		for i := 0; err == nil && i < 4; i++ {
			err = g.Append(chunks[i])
		}
		return g, pats, err
	}
	for _, p := range []struct {
		name string
		n    int
	}{{"stream.group_round_us.p1", 1}, {"stream.group_round_us.p256", sz.groupBigP}} {
		g, _, err := newGroup(p.n)
		if err != nil {
			return fail(err)
		}
		add(row{
			name: p.name,
			run:  func() { rounds++; round(g.Slide, g.Append, rounds) },
			check: func() error {
				g, pats, err := newGroup(p.n)
				if err != nil {
					return err
				}
				return checkRound(func(i int) *core.Kernel { return g.Snapshot(i).Kernel }, pats, g.Slide, g.Append)
			},
		})
	}
	return rows, cleanup, nil
}

// runLadder checks and measures every row, giving each budget. A
// reference probe between consecutive rows scales each row to reference
// speed.
func runLadder(rows []row, budget time.Duration, p probe, res *runResult) error {
	before := p.time()
	for _, r := range rows {
		if err := r.check(); err != nil {
			return fmt.Errorf("ladder row %s: %w", r.name, err)
		}
		st := measure(r, unitOf(r.name), budget)
		after := p.time()
		speed := p.speedOf(before, after)
		before = after
		res.put(r.name, st.Median*speed, detail{Samples: st.N, IQR: st.IQR() * speed, AllocsPerOp: &st.allocs, BytesPerOp: &st.bytes})
	}
	return nil
}
