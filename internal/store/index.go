package store

import (
	"cmp"
	"slices"
	"sort"
)

// slot is one index record: a key fingerprint and the log record it
// locates.
type slot struct {
	fp uint64
	e  entry
}

// index maps key fingerprints to live log records at about 24 bytes a
// record. Most records sit in base, a slice sorted by fingerprint and
// searched by bisection; a record whose fingerprint is new since the
// last fold sits in the recent map until that map reaches a quarter of
// base, when fold sorts it in. A fingerprint lives in at most one of
// the two. A Go map alone costs about twice as much per record, since
// its tables run between half and seven-eighths full.
//
// An index is not safe for concurrent use; the Store's mutex guards it.
type index struct {
	base   []slot
	recent map[uint64]entry
}

// indexOf returns the index of the given records (distinct
// fingerprints), taking ownership of the slice.
func indexOf(slots []slot) index {
	slices.SortFunc(slots, byFingerprint)
	return index{base: slots}
}

func byFingerprint(a, b slot) int { return cmp.Compare(a.fp, b.fp) }

// minFold is the least number of recent records that triggers a fold,
// so a small base does not fold on every insert.
const minFold = 64

// find returns the position of fp in base and whether it is there.
func (x *index) find(fp uint64) (int, bool) {
	i := sort.Search(len(x.base), func(i int) bool { return x.base[i].fp >= fp })
	return i, i < len(x.base) && x.base[i].fp == fp
}

// get returns the record under fp.
func (x *index) get(fp uint64) (entry, bool) {
	if i, ok := x.find(fp); ok {
		return x.base[i].e, true
	}
	e, ok := x.recent[fp]
	return e, ok
}

// set points fp at e and returns the record it supersedes, if any.
func (x *index) set(fp uint64, e entry) (entry, bool) {
	if i, ok := x.find(fp); ok {
		old := x.base[i].e
		x.base[i].e = e
		return old, true
	}
	old, ok := x.recent[fp]
	if x.recent == nil {
		x.recent = make(map[uint64]entry)
	}
	x.recent[fp] = e
	if len(x.recent) >= max(minFold, len(x.base)/4) {
		x.fold()
	}
	return old, ok
}

// remove drops fp from the index.
func (x *index) remove(fp uint64) {
	if i, ok := x.find(fp); ok {
		x.base = slices.Delete(x.base, i, i+1)
		return
	}
	delete(x.recent, fp)
}

// count returns the number of live records.
func (x *index) count() int { return len(x.base) + len(x.recent) }

// fold merges every recent record into base, which it reallocates at
// exactly the combined size.
func (x *index) fold() {
	if len(x.recent) == 0 {
		return
	}
	add := make([]slot, 0, len(x.recent))
	for fp, e := range x.recent {
		add = append(add, slot{fp: fp, e: e})
	}
	slices.SortFunc(add, byFingerprint)
	merged := make([]slot, 0, len(x.base)+len(add))
	i := 0
	for _, sl := range add {
		for i < len(x.base) && x.base[i].fp < sl.fp {
			merged = append(merged, x.base[i])
			i++
		}
		merged = append(merged, sl)
	}
	merged = append(merged, x.base[i:]...)
	x.base, x.recent = merged, nil
}

// slots returns every live record, in unspecified order.
func (x *index) slots() []slot {
	out := make([]slot, 0, x.count())
	out = append(out, x.base...)
	for fp, e := range x.recent {
		out = append(out, slot{fp: fp, e: e})
	}
	return out
}
