// Package stats is the cardinality-statistics and cost-estimation
// subsystem behind the engine's cost-based join planning. It computes, in
// one pass over each relation's columnar arena, the three classical
// Selinger-style statistics — per-relation row counts, per-column
// distinct-value counts, and a top-k most-common-value (MCV) sketch per
// column — and exposes an estimator API over them:
//
//   - AtomEst estimates the materialization of one atom (constant-bound
//     columns priced through the MCV sketch, repeated variables as
//     equality selections) together with per-variable distinct counts;
//   - JoinEst composes two estimates through the standard join-size
//     formula |A ⋈ B| ≈ |A|·|B| / Π_shared max(d_A(v), d_B(v));
//   - OrderInto picks a join order for a set of inputs: exact dynamic
//     programming over left-deep orders for up to OrderDPMax inputs, a
//     greedy minimum-growth order above.
//
// Statistics are collected once per database (the engine caches them
// alongside its evaluator; both snapshot the database and belong to one
// epoch snapshot, replaced together by Engine.Apply) and every estimate is
// derived arithmetic — nothing here rescans data at planning time.
//
// For mutable databases, Collect retains the per-column value counts the
// sketch is derived from; WithDelta then absorbs a batch of
// inserted/removed tuples by moving those counts to the new version,
// adjusting them in place and re-deriving Distinct/MCV — no rescan —
// falling back to an exact recollection every StalenessRebuild deltas so
// no drift can persist.
package stats

import (
	"fmt"
	"math"
	"sort"

	"github.com/mqgo/metaquery/internal/relation"
)

// MCVEntries is k of the top-k most-common-value sketch kept per column.
const MCVEntries = 8

// OrderDPMax is the largest input count OrderInto plans exactly (left-deep
// dynamic programming over 2^n subsets); larger sets fall back to the
// greedy minimum-growth order.
const OrderDPMax = 8

// ValueCount is one entry of a column's MCV sketch.
type ValueCount struct {
	Val   relation.Value
	Count int
}

// ColumnStats summarizes one column of a base relation.
type ColumnStats struct {
	// Distinct is the exact number of distinct values in the column.
	Distinct int
	// MCV holds the most common values by descending count (ties broken by
	// ascending value), at most MCVEntries entries.
	MCV []ValueCount
	// mcvRows is the total row count covered by the MCV entries; the
	// remaining rows spread over the remaining distinct values.
	mcvRows int
}

// freq estimates the fraction of the relation's rows holding value v in
// this column: exact for MCV members, the uniform remainder estimate
// (rows - mcvRows)/(distinct - |MCV|)/rows otherwise.
func (c *ColumnStats) freq(v relation.Value, rows int) float64 {
	if rows == 0 {
		return 0
	}
	for _, e := range c.MCV {
		if e.Val == v {
			return float64(e.Count) / float64(rows)
		}
	}
	rest := c.Distinct - len(c.MCV)
	if rest <= 0 {
		// Every distinct value is in the sketch and v is not among them.
		return 0
	}
	return float64(rows-c.mcvRows) / float64(rest) / float64(rows)
}

// RelationStats summarizes one base relation.
type RelationStats struct {
	Rows int
	Cols []ColumnStats

	// counts holds the exact per-column value counts the ColumnStats are
	// derived from, enabling O(delta) maintenance in WithDelta; nil once
	// WithDelta has moved them to a newer version. deltas counts the
	// WithDelta applications since the last exact collection.
	counts []map[relation.Value]int
	deltas int
}

// Stats holds the collected statistics of one database snapshot. Every
// method but WithDelta is safe for concurrent use, also with a WithDelta
// running: row counts and column statistics are immutable after Collect,
// and only WithDelta reads or moves the value counts.
type Stats struct {
	db   *relation.Database
	rels map[string]*RelationStats
}

// Collect computes the statistics for every relation of db in one pass
// over each relation's rows, retaining the per-column value counts that
// WithDelta maintains incrementally (one count entry per column and
// distinct value).
func Collect(db *relation.Database) *Stats {
	st := &Stats{db: db, rels: make(map[string]*RelationStats, db.NumRelations())}
	for _, name := range db.RelationNames() {
		st.rels[name] = collectRelation(db.Relation(name))
	}
	return st
}

// collectRelation scans r once, counting every column's values.
func collectRelation(r *relation.Relation) *RelationStats {
	counts := make([]map[relation.Value]int, r.Arity())
	for c := range counts {
		counts[c] = make(map[relation.Value]int)
	}
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		for c, v := range row {
			counts[c][v]++
		}
	}
	rs := &RelationStats{Rows: r.Len(), Cols: make([]ColumnStats, r.Arity()), counts: counts}
	for c, m := range counts {
		deriveColumn(&rs.Cols[c], m)
	}
	return rs
}

// deriveColumn recomputes col's Distinct/MCV/mcvRows from the value counts.
func deriveColumn(col *ColumnStats, m map[relation.Value]int) {
	col.Distinct = len(m)
	col.MCV = topK(m, MCVEntries)
	col.mcvRows = 0
	for _, e := range col.MCV {
		col.mcvRows += e.Count
	}
}

// topK extracts the k highest-count entries, descending by count with ties
// broken by ascending value so the sketch is deterministic.
func topK(m map[relation.Value]int, k int) []ValueCount {
	if len(m) == 0 {
		return nil
	}
	all := make([]ValueCount, 0, len(m))
	for v, n := range m {
		all = append(all, ValueCount{Val: v, Count: n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Val < all[j].Val
	})
	if len(all) > k {
		all = all[:k]
	}
	return append([]ValueCount(nil), all...)
}

// Database returns the database the statistics were collected over.
func (st *Stats) Database() *relation.Database { return st.db }

// Relation returns the statistics of the named relation, or nil.
func (st *Stats) Relation(name string) *RelationStats { return st.rels[name] }

// StalenessRebuild is the number of WithDelta applications a relation's
// value counts absorb before the next delta triggers an exact
// recollection instead. The counts are exact, so this is defensive: it
// bounds how long any drift can last.
const StalenessRebuild = 64

// RelationChange is one relation's net tuple delta, as WithDelta consumes
// it: Added and Removed list actual membership changes (an insert of a
// present tuple or delete of an absent one must not appear).
type RelationChange struct {
	Name    string
	Added   []relation.Tuple
	Removed []relation.Tuple
}

// WithDelta derives the statistics of db — the changed database version —
// from st by absorbing the given per-relation changes. Known relations are
// updated from their value counts without rescanning their rows: the new
// version takes over each changed relation's count maps and updates them
// in place, so a delta costs O(|delta|) map updates plus the MCV re-derive
// rather than a copy of every column's counts. st keeps its Rows and Cols
// (old-epoch readers read only those) but loses the moved counts, so a
// later WithDelta on st itself recollects those relations exactly. New
// relations, relations without counts and relations past StalenessRebuild
// deltas are recollected exactly from db. Calls must not run concurrently
// on one chain of versions (the engine's Apply serializes them).
func (st *Stats) WithDelta(db *relation.Database, changes []RelationChange) *Stats {
	out := &Stats{db: db, rels: make(map[string]*RelationStats, len(st.rels)+len(changes))}
	for name, rs := range st.rels {
		out.rels[name] = rs
	}
	for _, ch := range changes {
		r := db.Relation(ch.Name)
		if r == nil {
			delete(out.rels, ch.Name)
			continue
		}
		rs := st.rels[ch.Name]
		if rs == nil || rs.counts == nil || rs.deltas >= StalenessRebuild {
			out.rels[ch.Name] = collectRelation(r)
			continue
		}
		nrs := &RelationStats{
			Rows:   rs.Rows + len(ch.Added) - len(ch.Removed),
			Cols:   make([]ColumnStats, len(rs.Cols)),
			counts: rs.counts,
			deltas: rs.deltas + 1,
		}
		rs.counts = nil
		for c, m := range nrs.counts {
			for _, t := range ch.Added {
				m[t[c]]++
			}
			for _, t := range ch.Removed {
				if m[t[c]]--; m[t[c]] <= 0 {
					delete(m, t[c])
				}
			}
			deriveColumn(&nrs.Cols[c], m)
		}
		out.rels[ch.Name] = nrs
	}
	return out
}

// DiffFrom compares st against independently collected statistics over the
// same data, returning "" when every relation's row count, per-column
// distinct count and MCV sketch agree, or a description of the first
// divergence. The value counts are exact, so incremental maintenance must
// match a from-scratch collection bit for bit; the differential harness
// uses this to catch stats drift that answer comparison cannot see.
func (st *Stats) DiffFrom(other *Stats) string {
	for name, rs := range st.rels {
		ors := other.rels[name]
		if ors == nil {
			return fmt.Sprintf("relation %s: present here, absent there", name)
		}
		if rs.Rows != ors.Rows {
			return fmt.Sprintf("relation %s: rows %d vs %d", name, rs.Rows, ors.Rows)
		}
		if len(rs.Cols) != len(ors.Cols) {
			return fmt.Sprintf("relation %s: arity %d vs %d", name, len(rs.Cols), len(ors.Cols))
		}
		for c := range rs.Cols {
			a, b := &rs.Cols[c], &ors.Cols[c]
			if a.Distinct != b.Distinct {
				return fmt.Sprintf("relation %s col %d: distinct %d vs %d", name, c, a.Distinct, b.Distinct)
			}
			if len(a.MCV) != len(b.MCV) {
				return fmt.Sprintf("relation %s col %d: MCV size %d vs %d", name, c, len(a.MCV), len(b.MCV))
			}
			for k := range a.MCV {
				if a.MCV[k] != b.MCV[k] {
					return fmt.Sprintf("relation %s col %d: MCV[%d] %v vs %v", name, c, k, a.MCV[k], b.MCV[k])
				}
			}
		}
	}
	for name := range other.rels {
		if st.rels[name] == nil {
			return fmt.Sprintf("relation %s: absent here, present there", name)
		}
	}
	return ""
}

// Est is the estimated profile of a (possibly derived) table: an estimated
// row count and per-column distinct-count estimates aligned with Vars.
// A zero Est describes an empty table.
type Est struct {
	Rows     float64
	Vars     []string
	Distinct []float64
}

// DistinctOf returns the distinct estimate for variable v, or Rows when v
// is not a column (an unknown column constrains nothing beyond the row
// count).
func (e Est) DistinctOf(v string) float64 {
	for i, x := range e.Vars {
		if x == v {
			return e.Distinct[i]
		}
	}
	return e.Rows
}

// AtomEst estimates the materialization relation.FromAtom(db, a): the
// expected row count after constant and repeated-variable selections, and
// a distinct estimate per output variable. Constants are priced through
// the MCV sketch (exact frequency for sketch members, the uniform
// remainder estimate otherwise); a repeated variable contributes the
// textbook equality selectivity 1/max(d_i, d_j) per extra occurrence.
func (st *Stats) AtomEst(a relation.Atom) Est {
	rs := st.rels[a.Pred]
	if rs == nil || rs.Rows == 0 {
		return Est{Vars: a.Vars(), Distinct: make([]float64, len(a.Vars()))}
	}
	sel := 1.0
	firstPos := make(map[string]int, len(a.Terms))
	for i, t := range a.Terms {
		switch {
		case !t.IsVar():
			v := t.Const
			if t.ConstName != "" {
				var ok bool
				v, ok = st.db.Dict().Lookup(t.ConstName)
				if !ok {
					// A never-interned constant matches no tuple.
					return Est{Vars: a.Vars(), Distinct: make([]float64, len(a.Vars()))}
				}
			}
			sel *= rs.Cols[i].freq(v, rs.Rows)
		default:
			if p, seen := firstPos[t.Var]; seen {
				d := math.Max(float64(rs.Cols[p].Distinct), float64(rs.Cols[i].Distinct))
				if d > 1 {
					sel /= d
				}
			} else {
				firstPos[t.Var] = i
			}
		}
	}
	rows := float64(rs.Rows) * sel
	vars := a.Vars()
	dist := make([]float64, len(vars))
	for i, v := range vars {
		d := float64(rs.Cols[firstPos[v]].Distinct)
		dist[i] = math.Min(d, rows)
	}
	return Est{Rows: rows, Vars: vars, Distinct: dist}
}

// Selectivity estimates the fraction of atom a's base relation surviving
// its constant and repeated-variable selections, in [0, 1]. It is
// AtomEst(a).Rows normalized by the relation's cardinality.
func (st *Stats) Selectivity(a relation.Atom) float64 {
	rs := st.rels[a.Pred]
	if rs == nil || rs.Rows == 0 {
		return 0
	}
	return st.AtomEst(a).Rows / float64(rs.Rows)
}

// JoinEst estimates a ⋈ b with the standard formula: the cross-product
// cardinality divided, per shared variable, by the larger of the two
// distinct counts. Output distincts are the input distincts capped by the
// estimated output rows.
func JoinEst(a, b Est) Est {
	rows := a.Rows * b.Rows
	for i, v := range a.Vars {
		db := -1.0
		for j, w := range b.Vars {
			if w == v {
				db = b.Distinct[j]
				break
			}
		}
		if db < 0 {
			continue
		}
		if d := math.Max(a.Distinct[i], db); d > 1 {
			rows /= d
		}
	}
	vars := make([]string, 0, len(a.Vars)+len(b.Vars))
	dist := make([]float64, 0, len(a.Vars)+len(b.Vars))
	take := func(v string, d float64) {
		for _, x := range vars {
			if x == v {
				return
			}
		}
		vars = append(vars, v)
		dist = append(dist, math.Min(d, rows))
	}
	for i, v := range a.Vars {
		take(v, a.Distinct[i])
	}
	for i, v := range b.Vars {
		take(v, b.Distinct[i])
	}
	return Est{Rows: rows, Vars: vars, Distinct: dist}
}

// WithRows returns a copy of the estimate with the row count replaced by
// an observed actual — the usual way to build an OrderInto input: base-atom
// distinct estimates against the materialized (or reduced) table's true
// cardinality.
func (e Est) WithRows(rows float64) Est {
	e.Rows = rows
	return e
}

// clampedDistinct returns the distinct estimate of v clamped to the row
// count (a column cannot hold more distinct values than the table has
// rows — the clamp is what lets callers pass base-relation distincts
// against reduced row counts without copying), or -1 when v is not a
// column. It is the planning-internal counterpart of DistinctOf.
func (e *Est) clampedDistinct(v string) float64 {
	for i, x := range e.Vars {
		if x == v {
			return math.Min(e.Distinct[i], math.Max(e.Rows, 1))
		}
	}
	return -1
}

// OrderInto returns a join order (a permutation of input indices, written
// into out, whose length must be len(in)) minimizing the estimated sum of
// intermediate result sizes. Up to OrderDPMax inputs it is the exact optimum over left-deep orders by dynamic programming on
// subsets; above that a greedy minimum-growth order (start with the
// smallest input, repeatedly append the input minimizing the estimated
// next intermediate). Cartesian steps are allowed but priced at the full
// cross product, so they are chosen only when unavoidable.
//
// Each input is an Est, usually a base-atom estimate with Rows replaced
// by the actual table cardinality (Est.WithRows); distinct counts larger
// than the row count are clamped during planning. Hot-path callers keep
// out on a stack or pooled buffer.
func OrderInto(in []Est, out []int) []int {
	n := len(in)
	for i := range out {
		out[i] = i
	}
	if n <= 2 {
		// One input needs no order; for two, the join operators pick the
		// build side from the actual cardinalities at run time.
		return out
	}
	if n <= OrderDPMax {
		return orderDP(in, out)
	}
	return orderGreedy(in, out)
}

// subsetRows estimates the join size of the inputs in mask: the product of
// row counts divided, per variable occurring in k >= 2 members, by the
// largest clamped distinct count raised to k-1 (each extra occurrence is
// one equality constraint).
func subsetRows(in []Est, mask uint) float64 {
	rows := 1.0
	for i := range in {
		if mask&(1<<uint(i)) != 0 {
			rows *= in[i].Rows
		}
	}
	for i := range in {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		for _, v := range in[i].Vars {
			// Count v only at its first occurrence across the subset.
			first := true
			maxD, occ := 1.0, 0
			for j := range in {
				if mask&(1<<uint(j)) == 0 {
					continue
				}
				if d := in[j].clampedDistinct(v); d >= 0 {
					if j < i {
						first = false
						break
					}
					occ++
					maxD = math.Max(maxD, d)
				}
			}
			if !first || occ < 2 {
				continue
			}
			for e := 1; e < occ; e++ {
				if maxD > 1 {
					rows /= maxD
				}
			}
		}
	}
	return rows
}

// orderDP is the exact left-deep subset DP: cost[mask] = rows(mask) +
// min_i cost[mask \ {i}], reconstructing the order from the argmin chain.
// The tables are fixed-size stack arrays (n <= OrderDPMax), so planning an
// order allocates nothing beyond the caller's output slice — this runs
// per body join in the engine's hot path.
func orderDP(in []Est, out []int) []int {
	n := len(in)
	size := 1 << uint(n)
	var costArr, rowsArr [1 << OrderDPMax]float64
	var lastArr [1 << OrderDPMax]int8
	cost, rows, last := costArr[:size], rowsArr[:size], lastArr[:size]
	for mask := 1; mask < size; mask++ {
		rows[mask] = subsetRows(in, uint(mask))
	}
	for mask := 1; mask < size; mask++ {
		if mask&(mask-1) == 0 {
			// Singleton: no intermediate yet.
			cost[mask] = 0
			last[mask] = int8(trailingBit(mask))
			continue
		}
		best := math.Inf(1)
		bestI := -1
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			c := cost[mask^(1<<uint(i))]
			if c < best {
				best = c
				bestI = i
			}
		}
		cost[mask] = best + rows[mask]
		last[mask] = int8(bestI)
	}
	mask := size - 1
	for k := n - 1; k >= 0; k-- {
		i := int(last[mask])
		out[k] = i
		mask ^= 1 << uint(i)
	}
	return out
}

func trailingBit(mask int) int {
	i := 0
	for mask&1 == 0 {
		mask >>= 1
		i++
	}
	return i
}

// orderGreedy starts with the smallest input and repeatedly appends the
// input minimizing the estimated next intermediate size.
func orderGreedy(in []Est, out []int) []int {
	n := len(in)
	used := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if in[i].Rows < in[start].Rows {
			start = i
		}
	}
	out[0] = start
	used[start] = true
	mask := uint(1) << uint(start)
	for k := 1; k < n; k++ {
		best := math.Inf(1)
		pick := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if r := subsetRows(in, mask|1<<uint(i)); r < best {
				best = r
				pick = i
			}
		}
		out[k] = pick
		used[pick] = true
		mask |= 1 << uint(pick)
	}
	return out
}
