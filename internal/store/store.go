// Package store is the persistent kernel store: a stdlib-only,
// crash-safe, content-hash-keyed append log that backs the in-memory
// LRU cache as a second tier, so restarts and new replicas start warm
// and multiple processes can share one directory of solved kernels.
//
// The on-disk layout is a single append-only log file of self-framing
// records:
//
//	offset  size  field
//	     0     4  magic "SLS1"
//	     4     2  format version (little-endian uint16, currently 1)
//	     6     2  reserved (must be zero)
//	     8    32  key: SHA-256 of the length-prefixed input pair
//	    40     4  payload length (little-endian uint32)
//	    44     4  CRC-32C (Castagnoli) over header[0:44] ++ payload
//	    48     …  payload: the kernel bytes (core.Kernel.MarshalBinary)
//
// Appends are fsync'd before the record becomes visible in the index,
// so a record that Get can return was durable when Put returned. The
// index is rebuilt on Open by scanning the log: a structurally torn
// tail (truncated header or payload, bad magic) marks the crash
// boundary and the file is truncated there; a record whose structure is
// sane but whose checksum fails (a bit flip) is counted, skipped, and
// never served. Overwrites of an existing key append a superseding
// record (last writer wins on scan); the bytes of superseded and
// corrupt records are "dead" and a compaction pass rewrites the live
// records into a fresh log once dead bytes cross a threshold.
//
// The in-memory index (index.go) is keyed by a key's fingerprint — its
// first 8 bytes — rather than by the full 32-byte key, and holds about
// 24 bytes per live record. The full key stays in every record header,
// so no answer can be wrong: Get verifies the header's key and reports
// ErrNotFound when the record under the fingerprint belongs to another
// key. Two keys sharing a fingerprint share one index slot, and the
// later Put supersedes the earlier record. Evicting another client's
// kernel that way takes a 64-bit second preimage of SHA-256 (about
// 2⁶⁴ hash evaluations per targeted key), so an untrusted client can
// cost a recompute at most, never a wrong kernel.
package store

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"semilocal/internal/core"
)

// Key identifies one kernel by the content of the input pair that
// produced it: SHA-256 over the length-prefixed pair, so ("ab","c")
// and ("a","bc") hash differently. Kernels are a pure function of the
// inputs — every algorithm configuration produces bit-identical
// kernels (the differential suite pins this) — so the key deliberately
// excludes the solve configuration: a kernel persisted by one config
// warms every other.
type Key [sha256.Size]byte

// fingerprint is the index slot of a key: its first 8 bytes.
func (k Key) fingerprint() uint64 { return binary.LittleEndian.Uint64(k[:8]) }

// KeyOf derives the store key for an input pair.
func KeyOf(a, b []byte) Key {
	h := sha256.New()
	var pre [8]byte
	binary.LittleEndian.PutUint64(pre[:], uint64(len(a)))
	h.Write(pre[:])
	h.Write(a)
	binary.LittleEndian.PutUint64(pre[:], uint64(len(b)))
	h.Write(pre[:])
	h.Write(b)
	var k Key
	h.Sum(k[:0])
	return k
}

const (
	logName     = "kernels.log"
	compactName = "kernels.log.compact"

	headerSize  = 48
	magicOff    = 0
	versionOff  = 4
	reservedOff = 6
	keyOff      = 8
	lenOff      = 40
	crcOff      = 44

	formatVersion = 1

	// MaxPayload bounds one record's payload; anything larger in a
	// header is structural corruption, not a real record.
	MaxPayload = 1 << 30
)

var logMagic = [4]byte{'S', 'L', 'S', '1'}

// castagnoli is the CRC-32C table; crc32.Castagnoli has hardware
// support on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors returned by Get.
var (
	// ErrNotFound reports that the store holds no record for the key.
	ErrNotFound = errors.New("store: kernel not found")
	// ErrCorrupt reports that the record for the key failed its
	// checksum or decode at read time; the record has been dropped from
	// the index and its bytes marked dead.
	ErrCorrupt = errors.New("store: kernel record corrupt")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("store: closed")
)

// Config tunes a store. The zero value is valid: fsync'd appends and
// the default compaction thresholds.
type Config struct {
	// NoSync skips the fsync after each append. Faster, but a crash can
	// lose recently appended records (never corrupt the prefix — the
	// open scan still truncates at the torn tail). Tests use it to keep
	// property loops fast.
	NoSync bool
	// CompactMinBytes is the least dead bytes before MaybeCompact acts;
	// 0 means the 64 KiB default. Compaction also requires the dead
	// fraction threshold below.
	CompactMinBytes int64
	// CompactFraction is the dead fraction of the log (dead/size) that
	// must be exceeded before MaybeCompact acts; 0 means the default
	// 0.5. Values ≥ 1 disable MaybeCompact (explicit Compact still
	// works).
	CompactFraction float64
}

func (c Config) minBytes() int64 {
	if c.CompactMinBytes > 0 {
		return c.CompactMinBytes
	}
	return 64 << 10
}

func (c Config) fraction() float64 {
	if c.CompactFraction > 0 {
		return c.CompactFraction
	}
	return 0.5
}

// entry locates one live record in the log.
type entry struct {
	off        int64
	payloadLen uint32
}

func (e entry) recordSize() int64 { return headerSize + int64(e.payloadLen) }

// Store is an open kernel store. All methods are safe for concurrent
// use.
type Store struct {
	dir string
	cfg Config

	mu     sync.RWMutex
	f      *os.File
	index  index // by Key.fingerprint
	size   int64 // current log length in bytes
	dead   int64 // bytes of superseded/corrupt records
	closed bool

	corrupt     int64 // checksum failures seen (open scan + reads)
	compactions int64
}

// Open opens (creating if needed) the store in dir, rebuilding the
// index by scanning the log. A structurally torn tail is truncated; a
// mid-log checksum failure is counted and skipped. Open never fails on
// corrupt content — only on I/O errors.
func Open(dir string, cfg Config) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	// A leftover compaction temp file means a crash mid-compaction: the
	// rename never happened, so the original log is intact and the temp
	// is garbage.
	if err := removeIfExists(filepath.Join(dir, compactName)); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	st := &Store{dir: dir, cfg: cfg, f: f}
	if err := st.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: open: %w", err)
	}
	return nil
}

// scan rebuilds the index from the log, truncating at the first
// structurally torn record and skipping (but counting) records whose
// structure is sane but whose checksum fails.
func (st *Store) scan() error {
	info, err := st.f.Stat()
	if err != nil {
		return fmt.Errorf("store: scan: %w", err)
	}
	fileSize := info.Size()
	var (
		off int64
		hdr [headerSize]byte
		buf []byte
	)
	for off < fileSize {
		if fileSize-off < headerSize {
			break // torn header: crash mid-append
		}
		if _, err := st.f.ReadAt(hdr[:], off); err != nil {
			return fmt.Errorf("store: scan at %d: %w", off, err)
		}
		if [4]byte(hdr[magicOff:magicOff+4]) != logMagic ||
			binary.LittleEndian.Uint16(hdr[versionOff:]) != formatVersion ||
			binary.LittleEndian.Uint16(hdr[reservedOff:]) != 0 {
			break // structural corruption: treat as the torn tail
		}
		payloadLen := binary.LittleEndian.Uint32(hdr[lenOff:])
		if payloadLen > MaxPayload {
			break
		}
		recEnd := off + headerSize + int64(payloadLen)
		if recEnd > fileSize {
			break // torn payload
		}
		if int(payloadLen) > len(buf) {
			buf = make([]byte, payloadLen)
		}
		payload := buf[:payloadLen]
		if _, err := st.f.ReadAt(payload, off+headerSize); err != nil {
			return fmt.Errorf("store: scan at %d: %w", off, err)
		}
		want := binary.LittleEndian.Uint32(hdr[crcOff:])
		got := crc32.Update(crc32.Checksum(hdr[:crcOff], castagnoli), castagnoli, payload)
		if got != want {
			// A bit flip inside a structurally sane record: skip it.
			// (A flip in the length field usually degrades to a torn
			// tail at the next bogus magic instead — either way nothing
			// corrupt is ever indexed.)
			st.corrupt++
			st.dead += headerSize + int64(payloadLen)
			off = recEnd
			continue
		}
		if _, err := core.UnmarshalKernel(payload); err != nil {
			// Checksum-valid but undecodable (a log written by a buggy
			// or hostile producer): indexing it would only defer the
			// failure to read time, so classify it corrupt here and
			// keep the invariant that every indexed record is servable.
			st.corrupt++
			st.dead += headerSize + int64(payloadLen)
			off = recEnd
			continue
		}
		fp := Key(hdr[keyOff : keyOff+sha256.Size]).fingerprint()
		if old, ok := st.index.set(fp, entry{off: off, payloadLen: payloadLen}); ok {
			st.dead += old.recordSize() // superseded: last writer wins
		}
		off = recEnd
	}
	st.index.fold()
	if off < fileSize {
		// Crash boundary: everything from the torn record on is
		// discarded so the next append lands on a clean boundary.
		if err := st.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if !st.cfg.NoSync {
			if err := st.f.Sync(); err != nil {
				return fmt.Errorf("store: sync after truncate: %w", err)
			}
		}
	}
	st.size = off
	return nil
}

// Get returns the kernel stored under key. It returns ErrNotFound for
// an absent key — including a sound record under the key's fingerprint
// that belongs to another key — and ErrCorrupt when the record fails
// its checksum or decode at read time (the record is then dropped from
// the index).
func (st *Store) Get(key Key) (*core.Kernel, error) {
	fp := key.fingerprint()
	st.mu.RLock()
	if st.closed {
		st.mu.RUnlock()
		return nil, ErrClosed
	}
	e, ok := st.index.get(fp)
	if !ok {
		st.mu.RUnlock()
		return nil, ErrNotFound
	}
	rec := make([]byte, e.recordSize())
	_, err := st.f.ReadAt(rec, e.off)
	st.mu.RUnlock()
	if err != nil {
		st.discard(fp, e)
		return nil, fmt.Errorf("%w: read: %v", ErrCorrupt, err)
	}
	// Re-verify on every read: the index proves the record was sound at
	// scan/append time, not that the disk still holds those bytes. The
	// CRC covers the header's key, so a flipped key byte is corrupt;
	// only a sound record can answer "another key".
	if [4]byte(rec[magicOff:magicOff+4]) != logMagic {
		st.discard(fp, e)
		return nil, ErrCorrupt
	}
	want := binary.LittleEndian.Uint32(rec[crcOff:])
	got := crc32.Update(crc32.Checksum(rec[:crcOff], castagnoli), castagnoli, rec[headerSize:])
	if got != want {
		st.discard(fp, e)
		return nil, ErrCorrupt
	}
	if Key(rec[keyOff:keyOff+sha256.Size]) != key {
		return nil, ErrNotFound
	}
	k, err := core.UnmarshalKernel(rec[headerSize:])
	if err != nil {
		st.discard(fp, e)
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return k, nil
}

// discard drops a record that failed read-time verification, counting
// it corrupt and marking its bytes dead.
func (st *Store) discard(fp uint64, e entry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur, ok := st.index.get(fp); ok && cur == e {
		st.index.remove(fp)
		st.dead += e.recordSize()
		st.corrupt++
	}
}

// Put durably appends the kernel under key. When the key — or another
// key with the same fingerprint — already holds a record, the new
// record supersedes it (the old bytes become dead).
// The record is fsync'd (unless Config.NoSync) before Put returns and
// before it becomes visible to Get.
func (st *Store) Put(key Key, k *core.Kernel) error {
	payload, err := k.MarshalBinary()
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("store: put: kernel payload %d exceeds limit %d", len(payload), MaxPayload)
	}
	rec := make([]byte, headerSize+len(payload))
	copy(rec[magicOff:], logMagic[:])
	binary.LittleEndian.PutUint16(rec[versionOff:], formatVersion)
	copy(rec[keyOff:], key[:])
	binary.LittleEndian.PutUint32(rec[lenOff:], uint32(len(payload)))
	copy(rec[headerSize:], payload)
	crc := crc32.Update(crc32.Checksum(rec[:crcOff], castagnoli), castagnoli, payload)
	binary.LittleEndian.PutUint32(rec[crcOff:], crc)

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	off := st.size
	if _, err := st.f.WriteAt(rec, off); err != nil {
		// A partial write past the committed size is a torn tail; cut
		// it back so the in-memory and on-disk states agree.
		st.f.Truncate(off)
		return fmt.Errorf("store: put: %w", err)
	}
	if !st.cfg.NoSync {
		if err := st.f.Sync(); err != nil {
			st.f.Truncate(off)
			return fmt.Errorf("store: put: sync: %w", err)
		}
	}
	if old, ok := st.index.set(key.fingerprint(), entry{off: off, payloadLen: uint32(len(payload))}); ok {
		st.dead += old.recordSize()
	}
	st.size = off + int64(len(rec))
	return nil
}

// MaybeCompact runs a compaction pass when dead bytes exceed both the
// configured floor and the configured fraction of the log. It reports
// whether a pass ran.
func (st *Store) MaybeCompact() (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false, ErrClosed
	}
	if st.dead < st.cfg.minBytes() || float64(st.dead) <= st.cfg.fraction()*float64(st.size) {
		return false, nil
	}
	return true, st.compactLocked()
}

func (st *Store) compactLocked() error {
	tmpPath := filepath.Join(st.dir, compactName)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	// Preserve append order so a store that survived N compactions
	// still reads like one log written front to back.
	live := st.index.slots()
	slices.SortFunc(live, func(a, b slot) int { return cmp.Compare(a.e.off, b.e.off) })
	var out int64
	for i := range live {
		e := live[i].e
		rec := make([]byte, e.recordSize())
		if _, err := st.f.ReadAt(rec, e.off); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact read: %w", err)
		}
		if _, err := tmp.WriteAt(rec, out); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact write: %w", err)
		}
		live[i].e.off = out
		out += e.recordSize()
	}
	if !st.cfg.NoSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact sync: %w", err)
		}
	}
	logPath := filepath.Join(st.dir, logName)
	if err := os.Rename(tmpPath, logPath); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact rename: %w", err)
	}
	if !st.cfg.NoSync {
		if err := syncDir(st.dir); err != nil {
			// The rename already happened; the new log is live either
			// way, the directory entry just isn't durably recorded yet.
			tmp.Close()
			return fmt.Errorf("store: compact dir sync: %w", err)
		}
	}
	st.f.Close()
	st.f = tmp
	st.index = indexOf(live)
	st.size = out
	st.dead = 0
	st.compactions++
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Len returns the number of live records.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.index.count()
}

// CorruptRecords returns the number of checksum/decode failures seen —
// at the open scan and on reads — since Open.
func (st *Store) CorruptRecords() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.corrupt
}

// Close releases the store. Further calls return ErrClosed; Close is
// idempotent.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	err := st.f.Close()
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

var _ io.Closer = (*Store)(nil)
