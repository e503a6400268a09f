package relation

// This file implements the reusable working memory behind the engine's
// zero-alloc steady state: a Scratch holds every transient buffer the
// semijoin/projection kernels need (shared-column positions, block hash
// buffers, chain-index arrays, matched bitmaps, tuple staging, a transient
// key-count index) plus a freelist of released output tables whose arenas
// are recycled by later operator calls. The scratch-aware operator variants
// (SemijoinS, SemijoinCounts, ProjectS) accept a nil *Scratch and then
// behave exactly like their allocating counterparts, so the scratch is
// purely an optimization layer: results are identical either way.
//
// A Scratch is owned by one goroutine at a time and must never be shared
// between concurrently running operators. Tables handed to Release must be
// exclusively owned by the caller — never cached, shared, or referenced
// again — because their storage is reused by the next outTable call.

// probeBlock is the row-block size of the batched probe loops: hashes for a
// block of rows are computed in one sequential pass over the arena before
// the (random-access) hash-set probes, so the value walk stays
// cache-resident while probing.
const probeBlock = 256

// Scratch is the per-search working memory. The zero value is ready to use;
// buffers grow to the high-water mark of the operators run through it and
// are then reused without further allocation.
type Scratch struct {
	posA, posB []int
	hashes     []uint64
	matched    []bool
	heads      []int32
	next       []int32
	buf        Tuple
	sample     []int
	free       []*Table
	kc         KeyCounts
	ops        Ops
}

// Ops tallies the scratch-aware kernel calls routed through one Scratch:
// the relational-operator work profile of whatever search ran on it. The
// counters are plain (non-atomic) because a Scratch is single-goroutine by
// contract; read them through Scratch.Ops.
type Ops struct {
	// Semijoins counts SemijoinS calls (materializing reductions).
	Semijoins uint64
	// SemijoinCounts counts cardinality-only calls: SemijoinCounts and
	// KeyCounts.PairCounts (each counted pair adds one).
	SemijoinCounts uint64
	// KeyIndexes counts key-count indexes built, by KeyCounts.PairCounts,
	// KeyCounts.Probe or the SemijoinCounts kernel (a row-set index builds
	// nothing and is not counted).
	KeyIndexes uint64
	// Projections counts ProjectS calls.
	Projections uint64
	// Released counts tables recycled through Release.
	Released uint64
}

// Ops returns the kernel-call tally since NewScratch or ResetOps. A nil
// scratch reports zero ops.
func (sc *Scratch) Ops() Ops {
	if sc == nil {
		return Ops{}
	}
	return sc.ops
}

// ResetOps zeroes the kernel-call tally, so a reused scratch can report
// per-run profiles.
func (sc *Scratch) ResetOps() {
	if sc != nil {
		sc.ops = Ops{}
	}
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Reset drops the table freelist (the buffers survive, they hold no table
// state). Call it when previously released tables may still be referenced —
// e.g. before reusing a scratch across search runs whose results escaped.
func (sc *Scratch) Reset() {
	if sc == nil {
		return
	}
	for i := range sc.free {
		sc.free[i] = nil
	}
	sc.free = sc.free[:0]
}

// Release returns a table's storage to the scratch for reuse by a later
// operator call. The caller must own t exclusively: t must not be a cached
// or shared table, and must not be used after release.
func (sc *Scratch) Release(t *Table) {
	if sc == nil || t == nil {
		return
	}
	sc.ops.Released++
	sc.free = append(sc.free, t)
}

// outTable returns an empty table over vars with room for capRows rows,
// recycling a released table's storage when one is available.
func (sc *Scratch) outTable(vars []string, capRows int) *Table {
	if sc != nil {
		if n := len(sc.free); n > 0 {
			t := sc.free[n-1]
			sc.free[n-1] = nil
			sc.free = sc.free[:n-1]
			t.reset(vars, capRows)
			return t
		}
	}
	return NewTableCap(vars, capRows)
}

// hashBuf returns the probeBlock-sized hash buffer.
func (sc *Scratch) hashBuf() []uint64 {
	if sc == nil {
		return make([]uint64, probeBlock)
	}
	if cap(sc.hashes) < probeBlock {
		sc.hashes = make([]uint64, probeBlock)
	}
	return sc.hashes[:probeBlock]
}

// matchedBuf returns a cleared n-sized bool buffer.
func (sc *Scratch) matchedBuf(n int) []bool {
	if sc == nil {
		return make([]bool, n)
	}
	if cap(sc.matched) < n {
		sc.matched = make([]bool, n)
		return sc.matched
	}
	m := sc.matched[:n]
	clear(m)
	return m
}

// tupleBuf returns an n-sized tuple staging buffer.
func (sc *Scratch) tupleBuf(n int) Tuple {
	if sc == nil {
		return make(Tuple, n)
	}
	if cap(sc.buf) < n {
		sc.buf = make(Tuple, n)
	}
	return sc.buf[:n]
}

// sharedPosS resolves the positions of the columns shared by t and u on
// both sides (in t's column order), into the scratch position buffers when
// sc is non-nil.
func sharedPosS(t, u *Table, sc *Scratch) (tPos, uPos []int) {
	if sc != nil {
		tPos, uPos = sc.posA[:0], sc.posB[:0]
	}
	for i, v := range t.vars {
		if p := u.Pos(v); p >= 0 {
			tPos = append(tPos, i)
			uPos = append(uPos, p)
		}
	}
	if sc != nil {
		sc.posA, sc.posB = tPos, uPos
	}
	return tPos, uPos
}

// hashBlockAt fills out[k] with the projection hash of row lo+k for rows
// lo..hi-1 of c, in one sequential pass over the arena. It must agree with
// hashAt row by row.
func hashBlockAt(c *colStore, pos []int, lo, hi int, out []uint64) {
	base := lo * c.width
	for r := lo; r < hi; r++ {
		row := c.data[base : base+c.width]
		base += c.width
		h := fnvOffset64
		for _, p := range pos {
			h ^= uint64(uint32(row[p]))
			h *= fnvPrime64
		}
		out[r-lo] = h
	}
}

// buildChainIndexS is buildChainIndex with the heads/next arrays (and the
// block hash buffer) drawn from the scratch. The returned index aliases the
// scratch arrays and is invalidated by the next buildChainIndexS call on
// the same scratch.
func buildChainIndexS(c *colStore, pos []int, sc *Scratch) chainIndex {
	size := slotsFor(c.nrows)
	var ix chainIndex
	if sc != nil {
		if cap(sc.heads) >= size {
			ix.heads = sc.heads[:size]
			clear(ix.heads)
		} else {
			ix.heads = make([]int32, size)
			sc.heads = ix.heads
		}
		if cap(sc.next) >= c.nrows {
			ix.next = sc.next[:c.nrows]
		} else {
			ix.next = make([]int32, c.nrows)
			sc.next = ix.next
		}
	} else {
		ix.heads = make([]int32, size)
		ix.next = make([]int32, c.nrows)
	}
	ix.mask = uint64(size - 1)
	hbuf := sc.hashBuf()
	for lo := 0; lo < c.nrows; lo += probeBlock {
		hi := min(lo+probeBlock, c.nrows)
		hashBlockAt(c, pos, lo, hi, hbuf)
		for r := lo; r < hi; r++ {
			h := hbuf[r-lo] & ix.mask
			ix.next[r] = ix.heads[h]
			ix.heads[h] = int32(r + 1)
		}
	}
	return ix
}

// reset reinitializes t as an empty table over vars with room for capRows
// rows, reusing its existing storage where it fits. Column names are not
// re-validated: reset is only reachable through Scratch.outTable, whose
// callers pass column lists taken from existing (already validated) tables.
func (t *Table) reset(vars []string, capRows int) {
	t.vars = append(t.vars[:0], vars...)
	t.colStore.reset(len(vars), capRows)
}

// reset empties the store for a new width/capacity, keeping allocations
// that still fit: the arena is truncated in place, and the slot array is
// cleared when it is within [want, 8*want] and reallocated otherwise (so a
// huge recycled table does not pin its slot array under tiny outputs).
func (c *colStore) reset(width, capRows int) {
	c.width = width
	c.data = c.data[:0]
	c.nrows = 0
	want := 8
	if capRows > 0 {
		want = slotsFor(capRows)
	}
	if len(c.slots) >= want && len(c.slots) <= 8*want {
		clear(c.slots)
	} else if capRows > 0 {
		c.slots = make([]int32, want)
	} else {
		c.slots = nil
		c.mask = 0
		return
	}
	c.mask = uint64(len(c.slots) - 1)
	if capRows > 0 && cap(c.data) < capRows*width {
		c.data = make([]Value, 0, capRows*width)
	}
}
