package relation

// KeyCounts is a key-count index over one table, its indexed side: every
// distinct key of that table's rows on the columns it shares with a probe
// table, together with the number of rows carrying the key. It is the one
// index behind every semijoin cardinality and membership probe: one scan
// of another table against it yields both semijoin cardinalities of the
// pair, |src ⋉ u| and |u ⋉ src|, so the two head-dependent indices cvr and
// cnf (Definition 2.6) come from a single pass, and Has answers for one
// row of the probe table whether it survives the semijoin.
//
// When every column of the indexed side is a key column, the table's own
// row set is the index (each key occurs in exactly one row) and nothing is
// built. Otherwise a key of one or two columns is packed into a word and
// counted in a packedIndex the KeyCounts keeps; wider keys are stored in a
// table drawn from the Scratch, which Reset hands back.
//
// The zero value is an empty index. Like a Scratch, a KeyCounts is owned
// by one goroutine at a time; the index references its source table, which
// must stay unchanged until Reset.
type KeyCounts struct {
	src    *Table
	keys   *Table      // distinct keys; src itself on the row-set path, nil on the packed path
	packed packedIndex // the packed path's keys, counts and pass stamps
	counts []int32     // counts[k]: rows of src with key k (generic path only)
	seen   []uint32    // seen[k] == pass: key k already matched during this pass (row-set and generic paths)
	pass   uint32
	vars   []string // key columns, in src's column order
	srcPos []int    // key columns' positions in src
	pos    []int    // key columns' positions in the table being scanned or probed
}

// PairCounts returns |h ⋉ b| and |b ⋉ h|, like h.SemijoinCounts(b, sc),
// for a table b that many tables h are counted against in turn (a body
// join and its head candidates). The indexed side is chosen by size: an h
// at least as large as b whose columns all occur in b is its own index and
// b is scanned; otherwise ix indexes b on the columns it shares with h (in
// b's column order) and h is scanned. That index is built on the first h
// needing it and reused by every later h keyed on the same columns, so b
// is scanned once rather than once per h. The caller must Reset ix
// whenever b changes: recycled scratch tables make pointer identity an
// unsafe key. Each call that counts adds one to sc's SemijoinCounts tally.
func (ix *KeyCounts) PairCounts(h, b *Table, sc *Scratch) (hb, bh int) {
	if h.nrows == 0 || b.nrows == 0 {
		return 0, 0
	}
	shared := 0
	for _, v := range h.vars {
		if b.HasVar(v) {
			shared++
		}
	}
	if shared == 0 || (shared == len(h.vars) && h.nrows >= b.nrows) {
		return h.SemijoinCounts(b, sc)
	}
	if sc != nil {
		sc.ops.SemijoinCounts++
	}
	if !ix.keyedFor(h) {
		ix.build(b, h, sc)
	}
	bh, hb = ix.count(h, sc)
	return hb, bh
}

// Probe indexes u on the columns it shares with t, so that Has(row)
// answers for any row of t whether it survives t ⋉ u (with no shared
// columns, whether u has rows: cartesian semantics). The index draws its
// key storage from sc like PairCounts, and the caller must Reset it before
// u changes.
func (ix *KeyCounts) Probe(t, u *Table, sc *Scratch) {
	ix.build(u, t, sc)
	ix.keyPos(t)
}

// Has reports whether row, a row of the table last passed to Probe, agrees
// with some indexed row on every key column.
func (ix *KeyCounts) Has(row Tuple) bool {
	if ix.keys == nil {
		return ix.packed.find(packAt(row, ix.pos)) != nil
	}
	return ix.keys.findAt(hashAt(row, ix.pos), row, ix.pos) >= 0
}

// Reset empties the index, handing a built key table back to sc. The
// retained buffers keep their capacity for the next build.
func (ix *KeyCounts) Reset(sc *Scratch) {
	if ix.keys != nil && ix.keys != ix.src {
		sc.Release(ix.keys)
	}
	ix.src, ix.keys = nil, nil
	ix.counts = ix.counts[:0]
}

// build indexes src on the columns it shares with u, in src's column
// order, replacing whatever the index held. Storage for the distinct keys
// of the generic path is drawn from sc (nil sc allocates); the row-set and
// packed paths draw none.
func (ix *KeyCounts) build(src, u *Table, sc *Scratch) {
	ix.Reset(sc)
	ix.src = src
	vars, srcPos := ix.vars[:0], ix.srcPos[:0]
	for i, v := range src.vars {
		if u.HasVar(v) {
			vars = append(vars, v)
			srcPos = append(srcPos, i)
		}
	}
	ix.vars, ix.srcPos = vars, srcPos
	if len(vars) == len(src.vars) {
		ix.keys = src
		ix.grow(src.nrows)
		return
	}
	if sc != nil {
		sc.ops.KeyIndexes++
	}
	if packable(len(srcPos)) {
		ix.packed.countKeys(&src.colStore, srcPos)
		return
	}
	keys := sc.outTable(vars, src.nrows)
	counts := ix.counts[:0]
	hbuf := sc.hashBuf()
	for lo := 0; lo < src.nrows; lo += probeBlock {
		hi := min(lo+probeBlock, src.nrows)
		hashBlockAt(&src.colStore, srcPos, lo, hi, hbuf)
		for r := lo; r < hi; r++ {
			k, added := keys.findOrAddAt(hbuf[r-lo], src.row(r), srcPos)
			if added {
				counts = append(counts, 0)
			}
			counts[k]++
		}
	}
	ix.keys, ix.counts = keys, counts
	ix.grow(keys.nrows)
}

// grow sizes the per-key pass stamps for n keys. Fresh stamps are zero and
// the pass counter only increases, so stale stamps never read as matched.
func (ix *KeyCounts) grow(n int) {
	if len(ix.seen) < n {
		ix.seen = append(ix.seen, make([]uint32, n-len(ix.seen))...)
	}
}

// keyedFor reports whether the index is built and keyed on exactly the
// columns its source shares with u, i.e. whether count(u) may reuse it.
func (ix *KeyCounts) keyedFor(u *Table) bool {
	if ix.src == nil {
		return false
	}
	k := 0
	for _, v := range ix.src.vars {
		if u.HasVar(v) {
			if k == len(ix.vars) || ix.vars[k] != v {
				return false
			}
			k++
		}
	}
	return k == len(ix.vars)
}

// count scans u once against the index and returns |src ⋉ u| and
// |u ⋉ src|. Every key column must be a column of u, which holds when the
// index was built against u or keyedFor(u) reports true.
func (ix *KeyCounts) count(u *Table, sc *Scratch) (srcRows, uRows int) {
	pos := ix.keyPos(u)
	ix.pass++
	if ix.pass == 0 {
		clear(ix.seen)
		ix.packed.clearMarks()
		ix.pass = 1
	}
	if ix.keys == nil {
		return ix.countPacked(u)
	}
	keys, seen, pass := ix.keys, ix.seen, ix.pass
	rowSet := keys == ix.src
	hbuf := sc.hashBuf()
	for lo := 0; lo < u.nrows; lo += probeBlock {
		hi := min(lo+probeBlock, u.nrows)
		hashBlockAt(&u.colStore, pos, lo, hi, hbuf)
		for r := lo; r < hi; r++ {
			k := keys.findAt(hbuf[r-lo], u.row(r), pos)
			if k < 0 {
				continue
			}
			uRows++
			if seen[k] != pass {
				seen[k] = pass
				if rowSet {
					srcRows++
				} else {
					srcRows += int(ix.counts[k])
				}
			}
		}
	}
	return srcRows, uRows
}

// keyPos resolves the key columns' positions in u, the table about to be
// scanned or probed, into ix.pos and returns them.
func (ix *KeyCounts) keyPos(u *Table) []int {
	pos := ix.pos[:0]
	for _, v := range ix.vars {
		pos = append(pos, u.Pos(v))
	}
	ix.pos = pos
	return pos
}

// countPacked is count on the packed path.
func (ix *KeyCounts) countPacked(u *Table) (srcRows, uRows int) {
	p, pos, pass := &ix.packed, ix.pos, ix.pass
	for r := 0; r < u.nrows; r++ {
		s := p.find(packAt(u.row(r), pos))
		if s == nil {
			continue
		}
		uRows++
		if s.mark != pass {
			s.mark = pass
			srcRows += int(s.rows)
		}
	}
	return srcRows, uRows
}

// SemijoinCounts returns |t ⋉ u| and |u ⋉ t| from one counting pass. It
// indexes one side and scans the other once: a side whose columns are all
// shared is its own index (the larger such side when both are), and
// otherwise the smaller side gets a key-count index drawn from sc (see
// KeyCounts). With no shared columns both counts are the full sizes when
// both sides are non-empty and 0 otherwise (cartesian semantics). Each
// call adds one to sc's SemijoinCounts tally.
func (t *Table) SemijoinCounts(u *Table, sc *Scratch) (tu, ut int) {
	if sc != nil {
		sc.ops.SemijoinCounts++
	}
	tPos, uPos := sharedPosS(t, u, sc)
	if len(tPos) == 0 {
		if t.nrows == 0 || u.nrows == 0 {
			return 0, 0
		}
		return t.nrows, u.nrows
	}
	tAll, uAll := len(tPos) == len(t.vars), len(uPos) == len(u.vars)
	var indexU bool
	switch {
	case tAll && uAll: // both are free indexes: scan the smaller side
		indexU = u.nrows >= t.nrows
	case uAll:
		indexU = true
	case tAll:
		indexU = false
	default: // build on the smaller side, scan the larger
		indexU = u.nrows <= t.nrows
	}
	ix := sc.keyCounts()
	if indexU {
		ix.build(u, t, sc)
		ut, tu = ix.count(t, sc)
	} else {
		ix.build(t, u, sc)
		tu, ut = ix.count(u, sc)
	}
	ix.Reset(sc)
	return tu, ut
}

// keyCounts returns the scratch's transient key-count index (a fresh one
// for the nil scratch).
func (sc *Scratch) keyCounts() *KeyCounts {
	if sc == nil {
		return &KeyCounts{}
	}
	return &sc.kc
}

// findAt returns the row id whose values equal row's projection on pos,
// or -1; h must be hashAt(row, pos).
func (c *colStore) findAt(h uint64, row Tuple, pos []int) int {
	if c.nrows == 0 {
		return -1
	}
	for i := h & c.mask; ; i = (i + 1) & c.mask {
		s := c.slots[i]
		if s == 0 {
			return -1
		}
		if c.rowEqualAt(int(s-1), row, pos) {
			return int(s - 1)
		}
	}
}

// findOrAddAt is findAt that appends the projection as a new row when it
// is absent, reporting whether it did.
func (c *colStore) findOrAddAt(h uint64, row Tuple, pos []int) (int, bool) {
	if c.slots == nil {
		c.growSlots(8)
	}
	i := h & c.mask
	for {
		s := c.slots[i]
		if s == 0 {
			break
		}
		if c.rowEqualAt(int(s-1), row, pos) {
			return int(s - 1), false
		}
		i = (i + 1) & c.mask
	}
	c.checkRef()
	for _, p := range pos {
		c.data = append(c.data, row[p])
	}
	c.nrows++
	c.slots[i] = int32(c.nrows)
	if c.nrows*4 >= len(c.slots)*3 {
		c.growSlots(len(c.slots) * 2)
	}
	return c.nrows - 1, true
}

// rowEqualAt reports whether stored row r equals row's projection on pos.
func (c *colStore) rowEqualAt(r int, row Tuple, pos []int) bool {
	stored := c.data[r*c.width : r*c.width+c.width]
	for k, p := range pos {
		if stored[k] != row[p] {
			return false
		}
	}
	return true
}
