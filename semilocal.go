// Package semilocal computes semi-local longest common subsequence (LCS)
// scores: with one O(mn)-time computation it answers LCS queries for a
// whole string a against every substring of b, every substring of a
// against b, and all prefix/suffix combinations — the semi-local LCS
// problem of Tiskin, in the algorithms of Mishin, Berezun and Tiskin,
// "Efficient Parallel Algorithms for String Comparison" (ICPP 2021).
//
// The solution is held implicitly as a Kernel (a permutation of order
// m+n, a reduced sticky braid): linear space, O(log(m+n)) per arbitrary
// query, O(1) amortized per sliding-window query.
//
// Basic use:
//
//	k, err := semilocal.Solve(a, b, semilocal.Config{})
//	score := k.Score()                  // LCS(a, b)
//	windows := k.WindowScores(100)      // LCS(a, b[l:l+100)) for every l
//	one := k.StringSubstring(200, 350)  // LCS(a, b[200:350))
//
// Algorithm selection, thread-level parallelism, and the bit-parallel
// binary-alphabet fast path are configured through Config, BinaryLCS and
// the Algorithm constants; see also cmd/semilocal for a command-line
// interface and cmd/benchsuite for the paper's experiment harness.
package semilocal

import (
	"semilocal/internal/banded"
	"semilocal/internal/bitlcs"
	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/editdist"
	"semilocal/internal/obs"
	"semilocal/internal/query"
	"semilocal/internal/server"
	"semilocal/internal/store"
	"semilocal/internal/stream"
)

// Kernel is the implicit semi-local LCS solution; see the methods of
// core.Kernel: Score, H, StringSubstring, SubstringString, SuffixPrefix,
// PrefixSuffix, WindowScores.
type Kernel = core.Kernel

// Config selects and parameterizes a kernel algorithm. The zero value
// runs sequential row-major iterative combing.
type Config = core.Config

// Algorithm names a kernel-producing algorithm.
type Algorithm = core.Algorithm

// The available algorithms; see the paper's evaluation for tradeoffs.
// AntidiagBranchless is the fastest sequential choice on most inputs;
// GridReduction is the strongest parallel choice.
const (
	RowMajor           = core.RowMajor
	Antidiag           = core.Antidiag
	AntidiagBranchless = core.AntidiagBranchless
	LoadBalanced       = core.LoadBalanced
	Recursive          = core.Recursive
	Hybrid             = core.Hybrid
	GridReduction      = core.GridReduction
)

// Solve computes the semi-local LCS kernel of a and b.
func Solve(a, b []byte, cfg Config) (*Kernel, error) {
	return core.Solve(a, b, cfg)
}

// Observability: stage tracing and latency histograms. A StageRecorder
// threads through the solver layers (combing passes, steady-ant
// composition, hybrid phases, bit-parallel block loops) and the query
// Engine (queue wait, cache hit/miss latency, per-request end-to-end),
// accumulating lock-free histograms and counters. A nil recorder
// disables everything at zero cost — the hot paths do not allocate or
// read the clock. Snapshot() is cheap and safe to take while solves are
// running; snapshots merge, so per-worker recorders can be combined.

// StageRecorder accumulates stage timings and work counters.
type StageRecorder = obs.Recorder

// StageSnapshot is a consistent copy of a recorder's state; see
// WriteBreakdown for the human-readable stage table and SolveCoverage
// for how much solve wall time the leaf stages explain.
type StageSnapshot = obs.Snapshot

// Stage indexes StageSnapshot.Stages: one latency histogram per traced
// stage.
type Stage = obs.Stage

// Two traced stages: every solver stage (comb/compose/grid/bit) nests
// inside StageSolve, and StageRequest is one Engine request end to end.
// WriteBreakdown lists every stage by name.
const (
	StageSolve   = obs.StageSolve   // one whole kernel solve
	StageRequest = obs.StageRequest // one request end to end
)

// StageCounter indexes StageSnapshot.Counters: work volume counters
// (combed cells, compositions and their total order, arena bytes, grid
// tiles, bit blocks, currently open spans).
type StageCounter = obs.CounterID

// CounterCacheMisses counts engine acquires that found no resident or
// in-flight kernel (cache_misses).
const CounterCacheMisses = obs.CounterCacheMisses

// NewStageRecorder returns an enabled recorder. Pass it to
// SolveObserved or EngineOptions.Obs.
func NewStageRecorder() *StageRecorder { return obs.New() }

// SolveObserved is Solve recording per-stage timings and counters into
// rec; rec == nil behaves exactly like Solve.
func SolveObserved(a, b []byte, cfg Config, rec *StageRecorder) (*Kernel, error) {
	return core.SolveWith(a, b, cfg, rec, nil)
}

// BinaryLCS returns the LCS score of two strings over the alphabet
// {0, 1} using the paper's bit-parallel combing algorithm — Boolean
// logic and shifts only, O(mn/64) word operations. workers > 1 processes
// independent word blocks in parallel. It panics on non-binary input.
func BinaryLCS(a, b []byte, workers int) int {
	return bitlcs.Score(a, b, bitlcs.FormulaOpt, bitlcs.Options{Workers: workers})
}

// GeneralBitLCS returns the LCS score of two strings over an arbitrary
// byte alphabet using the bit-plane generalization of the paper's
// bit-parallel combing algorithm (the open question in the paper's
// conclusion): characters are coded into ceil(log2 sigma) bit planes and
// the match word is the AND of per-plane agreements. Still Boolean
// logic and shifts only — O(mn·log(sigma)/64) word operations.
func GeneralBitLCS(a, b []byte, workers int) int {
	return bitlcs.ScoreAlphabet(a, b, bitlcs.Options{Workers: workers})
}

// Serving layer: one kernel solve pays for unlimited sublinear queries,
// and the Engine amortizes solves across requests — an LRU cache of
// EngineOptions.MaxKernels kernels with singleflight deduplication and
// a batch front end over a worker pool. See internal/query for details
// and cmd/semilocal's -serve-batch mode for a file-driven harness.

// Engine is a concurrent batch query engine over cached kernels.
type Engine = query.Engine

// EngineOptions configures NewEngine; the zero value is usable.
type EngineOptions = query.Options

// Session is the query handle over one solved kernel, and it is the
// Kernel itself: the four semi-local query families, sliding-window
// sweeps at O(1) amortized per window, and BestWindow. A Session from
// NewSession answers each query in O(log(m+n)); one from an Engine
// builds that index on demand (see NewSession).
type Session = query.Session

// BatchRequest and BatchResult are the units of Engine.BatchSolve.
type BatchRequest = query.Request
type BatchResult = query.Result

// QueryKind selects a BatchRequest's query family.
type QueryKind = query.Kind

// The query families a BatchRequest can ask for.
const (
	QueryScore           = query.Score
	QueryStringSubstring = query.StringSubstring
	QuerySubstringString = query.SubstringString
	QuerySuffixPrefix    = query.SuffixPrefix
	QueryPrefixSuffix    = query.PrefixSuffix
	QueryWindows         = query.Windows
	QueryBestWindow      = query.BestWindow
)

// ParseQueryKind resolves the CLI/wire name of a query kind
// ("score", "string-substring", "windows", ...).
func ParseQueryKind(s string) (QueryKind, error) {
	return query.ParseKind(s)
}

// Answer answers req on k, reporting a request out of range for k's
// strings in BatchResult.Err instead of panicking; req.A, req.B and
// req.Timeout are ignored. It is the dispatch the Engine and its
// streams answer through.
func Answer(k *Kernel, req BatchRequest) BatchResult {
	return query.Answer(k, req)
}

// NewEngine builds a batch query engine; the caller must Close it.
func NewEngine(opts EngineOptions) *Engine {
	return query.NewEngine(opts)
}

// Hardened serving: EngineOptions carries per-request deadlines
// (Deadline), retry of transient solve failures with exponential
// backoff (Retry), admission control that sheds load past a queue
// bound (MaxQueue → ErrShed), and graceful degradation to the
// sequential kernel algorithm when a deadline is near (DegradeBelow).
// The fault-injection harness behind the chaos tests is exported too,
// so downstream services can run the same drills: a ChaosInjector
// built from seeded deterministic rules threads through
// EngineOptions.Chaos; nil disables injection at zero cost.

// RetryPolicy configures automatic re-solving of transient failures.
// The zero policy disables retries.
type RetryPolicy = query.RetryPolicy

// ErrShed is returned for requests rejected by the engine's admission
// control (EngineOptions.MaxQueue) — the 429 of this engine.
var ErrShed = query.ErrShed

// ErrInjectedFault matches (errors.Is) every error produced by fault
// injection; injected errors are transient by construction.
var ErrInjectedFault = chaos.ErrInjected

// IsTransient reports whether err is worth retrying (it carries a
// `Transient() bool` method reporting true anywhere in its chain).
func IsTransient(err error) bool { return query.IsTransient(err) }

// ChaosInjector decides, deterministically from a seed, which arrivals
// at which serving-path points receive which injected faults.
type ChaosInjector = chaos.Injector

// ChaosConfig and ChaosRule configure NewChaosInjector.
type ChaosConfig = chaos.Config
type ChaosRule = chaos.Rule

// NewChaosInjector validates cfg's rules and builds an injector.
func NewChaosInjector(cfg ChaosConfig) (*ChaosInjector, error) {
	return chaos.New(cfg)
}

// ParseChaosSpec parses the CLI rule syntax
// `point:fault:permille[:latency[:maxcount]]`, comma-separated —
// e.g. "solve:error:200:0:3,worker:stall:100:5ms".
func ParseChaosSpec(spec string) ([]ChaosRule, error) {
	return chaos.ParseSpec(spec)
}

// NewSession prepares a solved kernel for serving-style queries
// without going through an Engine cache and returns it: a Session is
// the kernel. It builds the kernel's dominance tree eagerly, so every
// query costs O(log(m+n)) from the first call. An Engine's cache does not: its sessions count each query
// directly in O(m+n) until the kernel's accumulated scan work reaches
// the tree's build cost, (m+n)·⌈log₂(m+n)⌉, and only then build the
// tree, so a cached kernel that answers a few queries costs little more
// than its permutation. Answers are identical either way.
func NewSession(k *Kernel) *Session {
	return query.NewSession(k)
}

// Streaming: the kernel is compositional (adjacent chunks of b multiply
// under the steady ant into the kernel of their concatenation), so the
// kernel of a growing — optionally sliding — text can be maintained
// incrementally: each appended chunk costs one small leaf solve plus
// O(log(n/chunk)) amortized compositions, never a from-scratch O(mn)
// recomb. Published kernels are immutable generations behind an atomic
// pointer; queries are lock-free and run concurrently with appends.

// StreamSession maintains the kernel of a fixed pattern against a
// chunked, sliding window of text: a StreamGroup of one pattern; see
// internal/stream.
type StreamSession = stream.Session

// StreamConfig configures NewStreamSession; the zero value is usable.
// It is StreamGroupConfig, since a stream session is a group of one.
type StreamConfig = stream.Config

// StreamState is one published kernel generation of a StreamSession.
type StreamState = stream.State

// NewStreamSession opens a standalone streaming session for pattern a
// (no engine: no deadline or retry semantics; pair it with NewSession
// for prepared queries). For the hardened serving path use
// Engine.OpenStream, which returns an EngineStream.
func NewStreamSession(a []byte, cfg StreamConfig) (*StreamSession, error) {
	return stream.New(a, cfg)
}

// EngineStream is a streaming session served through an Engine — a
// one-pattern EngineStreamGroup with pattern-free query accessors:
// mutations run under the engine's deadline and transient-retry
// policy, and queries answer on the latest published kernel, which
// builds its query index once per generation. Open one with
// Engine.OpenStream.
type EngineStream = query.Stream

// Multi-pattern streaming: a session group holds P fixed patterns
// against one shared chunked window and mutates every per-pattern
// spine in lockstep. The text-side work of each mutation — the chunk
// scan and relabeling tables — runs once for the whole group, patterns
// that induce the same relabeling class share one leaf solve, and exact
// duplicate patterns collapse onto a single spine. Per-pattern
// snapshots stay lock-free.

// StreamGroup maintains P pattern kernels over one shared sliding
// window; see internal/stream.
type StreamGroup = stream.Group

// StreamGroupConfig configures NewStreamGroup; the zero value is
// usable.
type StreamGroupConfig = stream.GroupConfig

// StreamGroupState is one published group-wide generation: window
// geometry plus every pattern's kernel state at the same instant.
type StreamGroupState = stream.GroupState

// NewStreamGroup opens a standalone session group for the given
// patterns (no engine: no deadline or retry semantics). For the
// hardened serving path use Engine.OpenStreamGroup, which returns an
// EngineStreamGroup.
func NewStreamGroup(patterns [][]byte, cfg StreamGroupConfig) (*StreamGroup, error) {
	return stream.NewGroup(patterns, cfg)
}

// EngineStreamGroup is a session group served through an Engine —
// every engine stream is one, and EngineStream is the group of one.
// Group mutations run under the engine's deadline and transient-retry
// policy (a failed mutation touched no spine, so re-issue is safe for
// all P patterns at once), and per-pattern queries answer on each
// pattern's latest published kernel, which builds its query index once
// per generation. Open one with Engine.OpenStreamGroup.
type EngineStreamGroup = query.StreamGroup

// EditKernel answers semi-local unit-cost edit-distance queries (see the
// methods of editdist.Kernel: Distance, SubstringDistance,
// WindowDistances, BestMatch, and the prefix/suffix variants).
type EditKernel = editdist.Kernel

// SolveEdit computes a semi-local edit-distance kernel via the blow-up
// reduction to semi-local LCS (a 4× grid overhead over Solve). Inputs
// must not contain the byte 0xff, which the reduction reserves.
func SolveEdit(a, b []byte, cfg Config) (*EditKernel, error) {
	return editdist.Solve(a, b, cfg)
}

// EditDistance returns the unit-cost Levenshtein distance of a and b,
// dispatching by input shape: near-identical pairs are answered by the
// banded diagonal BFS in O(n + k²), divergent pairs by
// linear-space dynamic programming. Both paths are exact.
func EditDistance(a, b []byte) int {
	return editdist.DistanceAuto(a, b)
}

// Banded fast path: edit distance and LCS by BFS over diagonals with
// LCP jumps (Landau–Vishkin, comparing eight bytes per step) —
// O(n + k²) for pairs within k edits, against the kernel
// pipeline's Θ(mn) construction. The standalone functions answer one
// pair; EngineOptions.Banded turns the same machinery into the engine's
// input-shape dispatcher, which routes Score requests on near-identical
// inputs around kernel construction and falls back (counted, chaos-
// injectable) when the band blows up.

// BandedConfig configures the engine's banded fast path; see
// EngineOptions.Banded.
type BandedConfig = query.BandedConfig

// BandedEditDistance returns the unit-cost edit distance of a and b if
// it is at most maxK, reporting ok=false (an early exit after
// O(n + maxK²·log n) work) otherwise. maxK ≤ 0 derives the budget from
// the measured banded-vs-kernel crossover (see EXPERIMENTS.md).
func BandedEditDistance(a, b []byte, maxK int) (int, bool) {
	if maxK <= 0 {
		maxK = banded.AutoMaxK(len(a), len(b))
	}
	return banded.DistanceBounded(a, b, maxK)
}

// BandedLCS returns the LCS score of a and b if their indel distance
// (m + n − 2·LCS) is at most maxD, reporting ok=false otherwise.
// maxD ≤ 0 derives the budget like BandedEditDistance.
func BandedLCS(a, b []byte, maxD int) (int, bool) {
	if maxD <= 0 {
		maxD = 2 * banded.AutoMaxK(len(a), len(b))
	}
	return banded.LCSScoreBounded(a, b, maxD)
}

// Persistent kernel store: a crash-safe, content-hash-keyed append log
// of solved kernels on disk, backing the engine's LRU cache as a
// write-through second tier. Restarts and new replicas start warm —
// cache misses consult the store before paying for a solve, and
// freshly solved kernels are appended asynchronously with per-record
// CRC-32C checksums and fsync durability. Corrupt or torn records are
// detected, skipped and counted on open; nothing corrupt is ever
// served. See internal/store for the record format and recovery
// semantics.

// KernelStore is an open on-disk kernel store. Open one with
// OpenStore, attach it via EngineOptions.Store, and close it after the
// engine (Engine.Close drains the pending appends first).
type KernelStore = store.Store

// StoreConfig tunes OpenStore; the zero value is valid (fsync'd
// appends, default compaction thresholds).
type StoreConfig = store.Config

// ErrStoreNotFound and ErrStoreCorrupt classify KernelStore.Get
// failures: an absent key versus a record that failed its checksum or
// decode (the record is dropped and counted, never returned).
var (
	ErrStoreNotFound = store.ErrNotFound
	ErrStoreCorrupt  = store.ErrCorrupt
)

// OpenStore opens (creating if needed) a persistent kernel store in
// dir, rebuilding its index by scanning the log and truncating any
// torn tail left by a crash.
func OpenStore(dir string, cfg StoreConfig) (*KernelStore, error) {
	return store.Open(dir, cfg)
}

// StoreKeyOf derives the content hash under which the kernel of
// (a, b) is stored — SHA-256 over the length-prefixed pair. Kernels
// are config-invariant, so the key excludes the solve configuration.
func StoreKeyOf(a, b []byte) store.Key {
	return store.KeyOf(a, b)
}

// Network serving tier: N engine shards, each ordered pair placed on
// one by rendezvous hashing, fronted by an HTTP/JSON API (batch
// solves and query families on /v1/batch, streaming op scripts on
// /v1/stream, Prometheus text on /metrics, liveness on /healthz).
// Because kernels are config-invariant, every shard answers every pair
// identically — a killed or drained shard degrades cache locality,
// never correctness. Per-tenant quotas layer in front of the per-shard
// MaxQueue/Deadline/retry/shed machinery, and cmd/loadgen drives the
// tier closed-loop for latency-SLO reports. See internal/server and
// cmd/semilocal's -serve-addr mode.

// Server is the sharded HTTP serving tier over the batch query engine.
type Server = server.Server

// ServerConfig configures NewServer; the zero value runs one shard
// with default limits.
type ServerConfig = server.Config

// ServerBatchRequest / ServerBatchResponse and the other wire types of
// the HTTP API live in internal/server; the stable JSON shapes are
// documented there and pinned by its differential test wall.
type ServerBatchRequest = server.BatchRequest
type ServerBatchResponse = server.BatchResponse
type ServerWireRequest = server.WireRequest
type ServerWireResult = server.WireResult

// ErrTenantQuota is the typed per-tenant admission rejection of the
// serving tier — the multi-tenant sibling of ErrShed.
var ErrTenantQuota = server.ErrTenantQuota

// NewServer builds the sharded serving tier; expose Handler through an
// http.Server and Close the tier on shutdown.
func NewServer(cfg ServerConfig) (*Server, error) {
	return server.New(cfg)
}
