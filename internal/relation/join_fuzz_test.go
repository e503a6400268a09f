package relation

import (
	"testing"
)

// FuzzJoin differentially tests the hash-join operators against a
// quadratic nested-loop reference on fuzzer-shaped table pairs: arbitrary
// arities (0..4), arbitrary column overlap (including none — the cartesian
// cases — and full), repeated values, and asymmetric sizes that flip the
// build/probe sides. NaturalJoin and Semijoin, with and without a reused
// Scratch, must agree with the reference exactly, and so must both counts
// of the one-pass SemijoinCounts kernel and of a KeyCounts index built on
// either side (the row-set path when all of the indexed side's columns are
// shared, the key-count path otherwise), including an index PairCounts
// reuses for a second head, and the per-row Has answers of a probe index.
// KeyCounts packs keys of one or two columns and stores wider ones in a
// key table.
//
// Run with: go test -fuzz=FuzzJoin ./internal/relation
func FuzzJoin(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 1, 0, 1, 2, 3, 0xFF, 1, 2, 3, 4})
	f.Add([]byte{1, 1, 0, 5, 5, 0xFF, 5, 6})
	f.Add([]byte{3, 2, 2, 1, 2, 3, 4, 5, 6, 0xFF, 9, 9, 1, 2})
	f.Add([]byte{0, 0, 0, 0xFF})
	f.Add([]byte{4, 4, 4, 1, 1, 1, 1, 0xFF, 1, 1, 1, 1, 2, 2, 2, 2})
	// No shared columns: [A,B] vs [C,D] (cartesian counts).
	f.Add([]byte{2, 2, 2, 1, 2, 3, 0, 0xFF, 1, 1})
	// Right's columns a strict subset of left's: [A,B,C] vs [B].
	f.Add([]byte{3, 1, 1, 1, 2, 3, 1, 3, 3, 2, 2, 2, 0xFF, 2, 3})
	// Duplicate keys on the scanned side: [A,B] rows repeat B against [B].
	f.Add([]byte{2, 1, 1, 0, 1, 1, 1, 2, 1, 3, 2, 0xFF, 1, 2})
	// Wide values (see decodeTablePair) on keys of one, two and three
	// shared columns: [A,B]/[B,C], [A,B,C]/[B,C,D] and [A,B,C,D]/[B,C,D,E].
	// KeyCounts indexes the first two through its packed path and the
	// third through its key table; the semijoin kernels' chain index
	// serves all three. Each width comes once with near-balanced sides
	// (the semijoin kernels index u and probe t) and once with a side of
	// 96 rows against 1 (they index the small side and scan the large one).
	for keyCols := 1; keyCols <= 3; keyCols++ {
		f.Add(widePairSeed(keyCols, 12, 9))
		f.Add(widePairSeed(keyCols, 1, 96))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		left, right := decodeTablePair(data)
		checkJoinAgainstReference(t, left, right)
		checkJoinAgainstReference(t, right, left)
	})
}

// columnPool names the columns tables draw from; overlap between the two
// tables is decided by the decoded offset.
var columnPool = []string{"A", "B", "C", "D", "E", "F", "G", "H"}

// decodeTablePair deterministically shapes two tables from fuzz bytes:
// byte 0 and 1 pick the arities (0..4), the low seven bits of byte 2 the
// column offset of the right table (overlap 0..arity), then value bytes
// fill rows — first the left table, then, after a 0xFF separator, the
// right. Values are folded into a tiny domain so joins actually match.
// When byte 2's high bit is set the values are instead spread over the
// whole int32 range, negatives included (wideValue), so that both halves
// of a packed two-column key and the high bits its hash keeps vary.
func decodeTablePair(data []byte) (*Table, *Table) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n1 := int(at(0)) % 5
	n2 := int(at(1)) % 5
	wide := at(2)&0x80 != 0
	off := 0
	if n1 > 0 {
		off = int(at(2)&0x7F) % (n1 + 1)
	}
	if off+n2 > len(columnPool) {
		off = len(columnPool) - n2
	}
	left := NewTable(columnPool[:n1])
	right := NewTable(columnPool[off : off+n2])

	i := 3
	fill := func(t *Table, cols int) {
		row := make(Tuple, cols)
		for i < len(data) && data[i] != 0xFF {
			for c := 0; c < cols; c++ {
				if wide {
					row[c] = wideValue(at(i))
				} else {
					row[c] = Value(at(i) % 4)
				}
				i++
			}
			t.Add(row)
			if cols == 0 {
				break // a zero-column table holds at most the empty tuple
			}
		}
	}
	fill(left, n1)
	if i < len(data) && data[i] == 0xFF {
		i++
	}
	fill(right, n2)
	return left, right
}

// wideValue maps a value byte to one of 16 values spread over the whole
// int32 range, so rows still match often: byte b picks the top four bits
// (half of the values are negative), and b%4 the low 28. Values four
// classes apart differ only in their top bits, so a key packed or hashed
// from too few of a value's bits merges them.
func wideValue(b byte) Value {
	return Value(int32(uint32(b%16)<<28 | uint32(b%4)*0x02AAAAAB))
}

// widePairSeed encodes a wide-value FuzzJoin input whose two tables share
// keyCols columns: leftRows rows over [A, key...] and rightRows rows over
// [key..., own]. Key values come from six classes (see wideValue): 0, 4,
// 8 and 12 differ only in their top bits, and 8, 12 and 9 are negative.
// The right side's keys count up through every combination, its own
// column keeping its rows distinct; the left side's keys step by seven,
// so some match and some differ from a right key in one column only.
func widePairSeed(keyCols, leftRows, rightRows int) []byte {
	classes := []byte{0, 4, 8, 12, 1, 9}
	data := []byte{byte(keyCols + 1), byte(keyCols + 1), 0x80 | 1}
	key := func(n int) int { // appends n's base-6 digits as classes
		for c := 0; c < keyCols; c++ {
			data = append(data, classes[n%6])
			n /= 6
		}
		return n
	}
	for i := 0; i < leftRows; i++ {
		data = append(data, byte(i%16))
		key(7 * i)
	}
	data = append(data, 0xFF)
	for r := 0; r < rightRows; r++ {
		data = append(data, byte(key(r)%16))
	}
	return data
}

// checkJoinAgainstReference compares every join operator on (a, b) with the
// nested-loop reference.
func checkJoinAgainstReference(t *testing.T, a, b *Table) {
	t.Helper()
	wantJoin := refNaturalJoin(a, b)
	gotJoin := a.NaturalJoin(b)
	if !gotJoin.EqualSet(wantJoin) {
		t.Fatalf("NaturalJoin mismatch:\n a=%v\n b=%v\n got=%v\n want=%v", a, b, gotJoin, wantJoin)
	}
	wantSemi := refSemijoin(a, b)
	gotSemi := a.Semijoin(b)
	if !gotSemi.EqualSet(wantSemi) {
		t.Fatalf("Semijoin mismatch:\n a=%v\n b=%v\n got=%v\n want=%v", a, b, gotSemi, wantSemi)
	}
	wantAB, wantBA := wantSemi.Len(), refSemijoin(b, a).Len()
	sc := NewScratch()
	for _, s := range []*Scratch{nil, sc, sc} {
		if ab, ba := a.SemijoinCounts(b, s); ab != wantAB || ba != wantBA {
			t.Fatalf("SemijoinCounts = (%d, %d), want (%d, %d) (a=%v b=%v)", ab, ba, wantAB, wantBA, a, b)
		}
	}
	// The scratch variants, on a scratch whose buffers were used before.
	for pass := 0; pass < 2; pass++ {
		if got := a.SemijoinS(b, sc); !got.EqualSet(wantSemi) {
			t.Fatalf("SemijoinS pass %d mismatch:\n a=%v\n b=%v\n got=%v\n want=%v", pass, a, b, got, wantSemi)
		}
	}
	// A probe index on b answers, row by row, which rows of a survive
	// a ⋉ b, drawing its storage from no, a fresh and a reused scratch.
	for _, s := range []*Scratch{nil, NewScratch(), sc} {
		var ix KeyCounts
		ix.Probe(a, b, s)
		for r := 0; r < a.Len(); r++ {
			if got, want := ix.Has(a.Row(r)), wantSemi.Contains(a.Row(r)); got != want {
				t.Fatalf("Has(%v) = %v, want %v (a=%v b=%v)", a.Row(r), got, want, a, b)
			}
		}
		ix.Reset(s)
	}
	// An index built on a answers repeated passes against b (the pass
	// stamps must not leak between them).
	var ix KeyCounts
	ix.build(a, b, sc)
	if !ix.keyedFor(b) {
		t.Fatalf("keyedFor(b) = false right after build(a, b) (a=%v b=%v)", a, b)
	}
	for pass := 0; pass < 2; pass++ {
		if ab, ba := ix.count(b, sc); ab != wantAB || ba != wantBA {
			t.Fatalf("KeyCounts pass %d = (%d, %d), want (%d, %d) (a=%v b=%v)", pass, ab, ba, wantAB, wantBA, a, b)
		}
	}
	if ba, ab := ix.PairCounts(b, a, sc); ab != wantAB || ba != wantBA {
		t.Fatalf("PairCounts = (%d, %d), want (%d, %d) (a=%v b=%v)", ba, ab, wantBA, wantAB, a, b)
	}
	// From a fresh index, PairCounts builds on a for a second head over
	// b's columns (every other row of b, in reverse order), and b itself
	// then reuses that index whenever one was built.
	ix.Reset(sc)
	h := NewTable(b.Vars())
	for r := b.Len() - 1; r >= 0; r -= 2 {
		h.Add(b.Row(r))
	}
	if ha, ah := ix.PairCounts(h, a, sc); ha != refSemijoin(h, a).Len() || ah != refSemijoin(a, h).Len() {
		t.Fatalf("PairCounts(h, a) = (%d, %d), want (%d, %d) (a=%v h=%v)", ha, ah, refSemijoin(h, a).Len(), refSemijoin(a, h).Len(), a, h)
	}
	if ba, ab := ix.PairCounts(b, a, sc); ab != wantAB || ba != wantBA {
		t.Fatalf("PairCounts after a second head = (%d, %d), want (%d, %d) (a=%v b=%v)", ba, ab, wantBA, wantAB, a, b)
	}
	ix.Reset(sc)
}

// refNaturalJoin is the O(n*m) nested-loop natural join: output columns are
// a's followed by b's extras; row pairs must agree on every shared column.
func refNaturalJoin(a, b *Table) *Table {
	outVars := append([]string(nil), a.Vars()...)
	var bExtra []int
	for i, v := range b.Vars() {
		if a.Pos(v) < 0 {
			outVars = append(outVars, v)
			bExtra = append(bExtra, i)
		}
	}
	out := NewTable(outVars)
	for i := 0; i < a.Len(); i++ {
		ra := a.Row(i)
		for j := 0; j < b.Len(); j++ {
			rb := b.Row(j)
			ok := true
			for bi, v := range b.Vars() {
				if p := a.Pos(v); p >= 0 && ra[p] != rb[bi] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			row := make(Tuple, 0, len(outVars))
			row = append(row, ra...)
			for _, p := range bExtra {
				row = append(row, rb[p])
			}
			out.Add(row)
		}
	}
	return out
}

// refSemijoin keeps the rows of a that match at least one row of b on the
// shared columns; with no shared columns a row "matches" iff b is non-empty.
func refSemijoin(a, b *Table) *Table {
	out := NewTable(a.Vars())
	for i := 0; i < a.Len(); i++ {
		ra := a.Row(i)
		matched := false
		for j := 0; j < b.Len() && !matched; j++ {
			rb := b.Row(j)
			ok := true
			for bi, v := range b.Vars() {
				if p := a.Pos(v); p >= 0 && ra[p] != rb[bi] {
					ok = false
					break
				}
			}
			matched = ok
		}
		if matched {
			out.Add(ra)
		}
	}
	return out
}

// FuzzOrderedJoin differentially tests the one multi-table join executor,
// JoinTablesOrdered, against the nested-loop reference chain on
// fuzzer-shaped triples of tables with overlapping columns: every one of
// the six join orders, and the size-greedy order JoinTablesGreedy picks,
// must yield the reference tuple set. EqualSet compares the column sets
// too, so an order whose intermediate runs empty must still return the
// union of all columns. The greedy order itself must be a permutation that
// starts with the smallest table.
//
// Run with: go test -fuzz='^FuzzOrderedJoin$' ./internal/relation
func FuzzOrderedJoin(f *testing.F) {
	f.Add([]byte{})
	// Chain [A,B] ⋈ [B,C] ⋈ [C,D] with matches.
	f.Add([]byte{2, 2, 2, 0, 1, 2, 1, 2, 2, 1, 0xFF, 2, 3, 1, 1, 0xFF, 3, 0, 1, 2})
	// The middle table is empty: every order hits an empty intermediate.
	f.Add([]byte{2, 2, 2, 0, 1, 2, 1, 2, 2, 1, 0xFF, 0xFF, 3, 0, 1, 2})
	// [A,B] and [B,C] share B but no value, so their join runs empty while
	// [C,D] is still to come.
	f.Add([]byte{2, 2, 2, 0, 1, 2, 1, 1, 2, 1, 0xFF, 2, 3, 0, 3, 0xFF, 3, 0, 1, 2, 2, 2})
	// Disjoint columns [A], [B], [C]: the greedy order takes cartesian
	// steps.
	f.Add([]byte{1, 1, 1, 0, 1, 2, 1, 0xFF, 1, 2, 0xFF, 0, 1, 2})
	// [A] and [C] share nothing, [A,B,C] links them: the greedy order
	// skips [C], second by size, for the connected [A,B,C].
	f.Add([]byte{1, 1, 3, 0, 2, 0, 1, 0xFF, 2, 0, 0xFF, 1, 2, 2, 2, 1, 0, 1, 1, 0})
	// A zero-column table (the empty tuple) beside two real ones.
	f.Add([]byte{0, 2, 2, 0, 0, 1, 0, 0xFF, 1, 2, 0, 1, 0xFF, 2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tables := decodeTables(data, 3)
		want := refNaturalJoin(refNaturalJoin(tables[0], tables[1]), tables[2])
		for _, order := range perms3 {
			if got := JoinTablesOrdered(tables, order); !got.EqualSet(want) {
				t.Fatalf("order %v: got %v, want %v (tables %v)", order, got, want, tables)
			}
		}
		if got := JoinTablesGreedy(tables); !got.EqualSet(want) {
			t.Fatalf("greedy: got %v, want %v (tables %v)", got, want, tables)
		}
		order := GreedyOrderInto(tables, make([]int, len(tables)))
		seen := make([]bool, len(tables))
		for _, i := range order {
			if i < 0 || i >= len(tables) || seen[i] {
				t.Fatalf("greedy order %v is not a permutation", order)
			}
			seen[i] = true
		}
		for _, tab := range tables {
			if tab.Len() < tables[order[0]].Len() {
				t.Fatalf("greedy order %v starts with %d rows, a table has %d", order, tables[order[0]].Len(), tab.Len())
			}
		}
	})
}

// decodeTables deterministically shapes n tables from fuzz bytes: bytes
// 0..n-1 pick the arities (0..3), bytes n..2n-1 each table's column offset
// into the first five pool columns (so schemas overlap), then value bytes
// fill rows table by table, separated by 0xFF. Values are folded into a
// tiny domain so joins actually match.
func decodeTables(data []byte, n int) []*Table {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	const poolCols = 5
	tables := make([]*Table, n)
	for k := range tables {
		w := int(at(k)) % 4
		off := int(at(n+k)) % (poolCols - w + 1)
		tables[k] = NewTable(columnPool[off : off+w])
	}
	i := 2 * n
	for _, tab := range tables {
		cols := len(tab.Vars())
		row := make(Tuple, cols)
		for i < len(data) && data[i] != 0xFF {
			for c := 0; c < cols; c++ {
				row[c] = Value(at(i) % 3)
				i++
			}
			tab.Add(row)
			if cols == 0 {
				break // a zero-column table holds at most the empty tuple
			}
		}
		if i < len(data) && data[i] == 0xFF {
			i++
		}
	}
	return tables
}
