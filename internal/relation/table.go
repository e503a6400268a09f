package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Table is an intermediate relational-algebra result: a set of tuples whose
// columns are named by ordinary variables. Tables are what J(R), semijoin
// programs and projections produce during index computation.
//
// Storage is columnar: rows live in a flat []Value arena and set semantics
// are enforced by an integer-hashed row set (see colstore.go), so Add,
// Contains and the join operators never materialize string keys or clone
// tuples. Tables are immutable once fully constructed and may then be shared
// freely across goroutines.
//
// Column names are distinct. The empty-column table with a single empty
// tuple acts as the join identity (the "unit" table).
type Table struct {
	vars []string
	colStore
}

// NewTable returns an empty table with the given distinct column variables.
func NewTable(vars []string) *Table {
	return NewTableCap(vars, 0)
}

// NewTableCap is NewTable with storage preallocated for capRows rows; use it
// when the result cardinality is known (or bounded) in advance.
func NewTableCap(vars []string, capRows int) *Table {
	return newTableOwning(append([]string(nil), vars...), capRows)
}

// newTableOwning is NewTableCap taking ownership of vars instead of
// copying it: the caller must not modify vars afterwards.
func newTableOwning(vars []string, capRows int) *Table {
	for i, v := range vars {
		for j := 0; j < i; j++ {
			if vars[j] == v {
				panic(fmt.Sprintf("relation: duplicate table column %q", v))
			}
		}
	}
	t := &Table{vars: vars}
	t.init(len(vars), capRows)
	return t
}

// Unit returns the join identity: a table with no columns and one (empty)
// tuple. Joining any table with Unit yields that table.
func Unit() *Table {
	t := NewTable(nil)
	t.Add(Tuple{})
	return t
}

// Vars returns the column variables in order. Callers must not modify it.
func (t *Table) Vars() []string { return t.vars }

// HasVar reports whether v is a column of t.
func (t *Table) HasVar(v string) bool { return t.Pos(v) >= 0 }

// Pos returns the column position of variable v, or -1. Column lists are
// small, so a linear scan beats a per-table map (and costs no allocation).
func (t *Table) Pos(v string) int {
	for i, tv := range t.vars {
		if tv == v {
			return i
		}
	}
	return -1
}

// Len returns the number of tuples.
func (t *Table) Len() int { return t.nrows }

// Empty reports whether the table has no tuples.
func (t *Table) Empty() bool { return t.nrows == 0 }

// Add inserts tup (values copied into the arena) if not already present and
// reports whether it was new. It panics on arity mismatch.
func (t *Table) Add(tup Tuple) bool {
	if len(tup) != len(t.vars) {
		panic(fmt.Sprintf("relation: adding %d-tuple to %d-column table", len(tup), len(t.vars)))
	}
	return t.add(tup)
}

// Contains reports whether tup is present.
func (t *Table) Contains(tup Tuple) bool {
	if len(tup) != len(t.vars) {
		return false
	}
	return t.contains(tup)
}

// Row returns row r (0 <= r < Len()) as a slice into the table's arena, in
// insertion order. The caller must not modify it. Row is the allocation-free
// iteration primitive; Tuples materializes the full header slice.
func (t *Table) Row(r int) Tuple { return t.row(r) }

// Tuples returns the tuples in insertion order. Each call materializes a
// fresh slice of row headers (one allocation) that the caller may reorder
// freely; the tuples themselves point into the table's arena and must not
// be modified. Iterate with Len/Row in hot paths.
func (t *Table) Tuples() []Tuple { return t.headers() }

// Compact returns t itself when its storage is tight, or an exactly-sized
// copy when the preallocated arena/row set greatly exceeds the actual row
// count (the output of a selective FromAtom or Project preallocated for its
// input cardinality). Use before inserting a table into a long-lived cache,
// so the cache pins memory proportional to the rows kept, not scanned.
func (t *Table) Compact() *Table {
	if !t.oversized() {
		return t
	}
	c := &Table{vars: t.vars}
	c.compactFrom(&t.colStore)
	return c
}

// Clone returns a deep copy of t.
func (t *Table) Clone() *Table {
	c := &Table{vars: append([]string(nil), t.vars...)}
	c.cloneFrom(&t.colStore)
	return c
}

// Project returns π_vars(t) with set semantics. Requested variables must be
// columns of t. The projection preserves the requested column order.
func (t *Table) Project(vars []string) *Table {
	return t.ProjectS(vars, nil)
}

// ProjectS is Project drawing its position buffer, tuple staging, and
// output-table storage from sc (see Scratch); nil sc allocates as Project
// does. The result is owned by the caller and may be handed back through
// sc.Release once it is no longer referenced.
func (t *Table) ProjectS(vars []string, sc *Scratch) *Table {
	var pos []int
	if sc != nil {
		sc.ops.Projections++
		pos = sc.posA[:0]
	}
	for _, v := range vars {
		p := t.Pos(v)
		if p < 0 {
			panic(fmt.Sprintf("relation: projecting on missing column %q", v))
		}
		pos = append(pos, p)
	}
	if sc != nil {
		sc.posA = pos
	}
	out := sc.outTable(vars, t.nrows)
	buf := sc.tupleBuf(len(vars))
	for r := 0; r < t.nrows; r++ {
		row := t.row(r)
		for i, p := range pos {
			buf[i] = row[p]
		}
		out.add(buf)
	}
	return out
}

// NaturalJoin returns t ⋈ u: tuples over the union of columns (t's columns
// first, then u's remaining columns) that agree on all shared columns. The
// smaller side is hashed on the shared columns with integer hashing; the
// output needs no dedup probes because the join of two sets is a set (each
// output row determines its t and u source rows).
func (t *Table) NaturalJoin(u *Table) *Table {
	// One pass over u's columns resolves the shared positions on both
	// sides and the u-positions feeding the extra output columns, all in
	// one buffer.
	n := len(u.vars)
	pos := make([]int, 3*n)
	tPos, uPos, uExtra := pos[:0:n], pos[n:n:2*n], pos[2*n:2*n]
	outVars := make([]string, len(t.vars), len(t.vars)+n)
	copy(outVars, t.vars)
	for p, v := range u.vars {
		if q := t.Pos(v); q >= 0 {
			tPos = append(tPos, q)
			uPos = append(uPos, p)
		} else {
			outVars = append(outVars, v)
			uExtra = append(uExtra, p)
		}
	}
	out := newTableOwning(outVars, max(t.nrows, u.nrows))
	buf := make(Tuple, len(outVars))
	tW := len(t.vars)

	build, probe := u, t
	buildPos, probePos := uPos, tPos
	swapped := false
	if t.nrows < u.nrows {
		build, probe = t, u
		buildPos, probePos = tPos, uPos
		swapped = true
	}
	idx := buildChainIndex(&build.colStore, buildPos)
	for pr := 0; pr < probe.nrows; pr++ {
		prow := probe.row(pr)
		h := hashAt(prow, probePos)
		for s := idx.first(h); s != 0; s = idx.next[s-1] {
			brow := build.row(int(s - 1))
			if !equalAt(prow, probePos, brow, buildPos) {
				continue
			}
			trow, urow := prow, brow
			if swapped {
				trow, urow = brow, prow
			}
			copy(buf, trow)
			for i, p := range uExtra {
				buf[tW+i] = urow[p]
			}
			out.addUnique(buf)
		}
	}
	return out
}

// Semijoin returns t ⋉ u: the tuples of t whose projection on the shared
// columns appears in u. With no shared columns, the result is t itself if u
// is non-empty and the empty table otherwise (cartesian semantics).
func (t *Table) Semijoin(u *Table) *Table {
	return t.SemijoinS(u, nil)
}

// SemijoinS is Semijoin drawing every transient buffer — shared-column
// positions, the chain index, block hash buffers, and the output table's
// storage — from sc (see Scratch); nil sc allocates as Semijoin does. The
// result is owned by the caller and may be handed back through sc.Release
// once it is no longer referenced.
//
// The kernel picks its direction with semiScanBetter: the classic
// direction (index u, probe t) by default, the matchedScan direction
// (index t, scan u) when u dwarfs t.
func (t *Table) SemijoinS(u *Table, sc *Scratch) *Table {
	if sc != nil {
		sc.ops.Semijoins++
	}
	tPos, uPos := sharedPosS(t, u, sc)
	if len(tPos) == 0 {
		out := sc.outTable(t.vars, 0)
		if u.nrows > 0 {
			out.cloneFrom(&t.colStore)
		}
		return out
	}
	out := sc.outTable(t.vars, t.nrows)
	if semiScanBetter(t.nrows, u.nrows) {
		for r, m := range t.matchedScan(u, tPos, uPos, sc) {
			if m {
				out.addUnique(t.row(r))
			}
		}
		return out
	}
	idx := buildChainIndexS(&u.colStore, uPos, sc)
	hbuf := sc.hashBuf()
	for lo := 0; lo < t.nrows; lo += probeBlock {
		hi := min(lo+probeBlock, t.nrows)
		hashBlockAt(&t.colStore, tPos, lo, hi, hbuf)
		for r := lo; r < hi; r++ {
			row := t.row(r)
			for s := idx.first(hbuf[r-lo]); s != 0; s = idx.next[s-1] {
				if equalAt(row, tPos, u.row(int(s-1)), uPos) {
					out.addUnique(row)
					break
				}
			}
		}
	}
	return out
}

// semiScanBetter decides the semijoin kernel direction: true selects the
// matchedScan direction (index t, scan u), worthwhile only when u is much
// larger than t — the scan pays a chain probe per u row, so near-balanced
// sides are cheaper in the classic direction (index u, probe t), while a
// heavily larger u makes the t-sized index (and its allocation) the
// clear win and enables the all-matched early exit.
func semiScanBetter(tRows, uRows int) bool {
	return uRows > 16*tRows+64
}

// matchedScan computes, for every row of t, whether its projection on the
// shared columns appears in u — with the hash index built over t, the
// smaller side, and u merely scanned. Building the index (and its slot
// array) on the low-cardinality side is the table-level counterpart of the
// estimator's build/probe-side selection; the scan early-exits once every
// t row has matched.
func (t *Table) matchedScan(u *Table, tPos, uPos []int, sc *Scratch) []bool {
	matched := sc.matchedBuf(t.nrows)
	if t.nrows == 0 {
		return matched
	}
	idx := buildChainIndexS(&t.colStore, tPos, sc)
	hbuf := sc.hashBuf()
	left := t.nrows
	for lo := 0; lo < u.nrows && left > 0; lo += probeBlock {
		hi := min(lo+probeBlock, u.nrows)
		hashBlockAt(&u.colStore, uPos, lo, hi, hbuf)
		for r := lo; r < hi && left > 0; r++ {
			row := u.row(r)
			for s := idx.first(hbuf[r-lo]); s != 0; s = idx.next[s-1] {
				tr := int(s - 1)
				if !matched[tr] && equalAt(row, uPos, t.row(tr), tPos) {
					matched[tr] = true
					left--
				}
			}
		}
	}
	return matched
}

// SortedTuples returns the tuples in lexicographic order, for deterministic
// output and tests.
func (t *Table) SortedTuples() []Tuple {
	out := t.headers()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// EqualSet reports whether t and u contain the same tuple set over the same
// column list, regardless of column order in u.
func (t *Table) EqualSet(u *Table) bool {
	if len(t.vars) != len(u.vars) || t.nrows != u.nrows {
		return false
	}
	perm := make([]int, len(t.vars))
	for i, v := range t.vars {
		p := u.Pos(v)
		if p < 0 {
			return false
		}
		perm[i] = p
	}
	buf := make(Tuple, len(t.vars))
	for r := 0; r < u.nrows; r++ {
		row := u.row(r)
		for i, p := range perm {
			buf[i] = row[p]
		}
		if !t.contains(buf) {
			return false
		}
	}
	return true
}

// String renders the table for debugging.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]{", strings.Join(t.vars, ","))
	for i, tup := range t.SortedTuples() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v", []Value(tup))
	}
	b.WriteByte('}')
	return b.String()
}
