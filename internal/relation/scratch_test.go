package relation

import (
	"math/rand"
	"testing"
)

// TestScratchOperatorEquivalence is the scratch layer's core contract:
// SemijoinS, SemijoinCounts and ProjectS through one continuously reused
// Scratch produce exactly the results of their allocating counterparts, on
// random table pairs spanning empty inputs, no shared columns, full
// overlap and heavy duplication.
func TestScratchOperatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sc := NewScratch()
	shapes := []struct {
		tVars, uVars []string
	}{
		{[]string{"X", "Y"}, []string{"Y", "Z"}},
		{[]string{"X", "Y"}, []string{"X", "Y"}},
		{[]string{"X", "Y"}, []string{"Z", "W"}},
		{[]string{"X", "Y", "Z"}, []string{"Y"}},
	}
	for round := 0; round < 30; round++ {
		shape := shapes[round%len(shapes)]
		domain := 1 + rng.Intn(12)
		a := randomTable(rng, shape.tVars, domain, rng.Intn(200))
		b := randomTable(rng, shape.uVars, domain, rng.Intn(200))

		plain := a.Semijoin(b)
		pooled := a.SemijoinS(b, sc)
		if !plain.EqualSet(pooled) {
			t.Fatalf("round %d %v⋉%v: SemijoinS %d rows, Semijoin %d", round, shape.tVars, shape.uVars, pooled.Len(), plain.Len())
		}
		if n, _ := a.SemijoinCounts(b, sc); n != plain.Len() {
			t.Fatalf("round %d: SemijoinCounts = %d, Semijoin has %d rows", round, n, plain.Len())
		}
		proj := shape.tVars[:1+rng.Intn(len(shape.tVars))]
		plainP := a.Project(proj)
		pooledP := a.ProjectS(proj, sc)
		if !plainP.EqualSet(pooledP) {
			t.Fatalf("round %d π%v: ProjectS %d rows, Project %d", round, proj, pooledP.Len(), plainP.Len())
		}
		// Feed the outputs back: later rounds recycle their storage.
		sc.Release(pooled)
		sc.Release(pooledP)
	}
}

// TestScratchFreelistRecycling pins the recycling mechanics: a released
// table's storage is handed back by the next outTable call, reset to the
// new column set with set semantics intact.
func TestScratchFreelistRecycling(t *testing.T) {
	sc := NewScratch()
	big := randomTable(rand.New(rand.NewSource(7)), []string{"A", "B"}, 40, 500)
	released := big.ProjectS([]string{"A"}, sc)
	sc.Release(released)

	got := sc.outTable([]string{"X", "Y", "Z"}, 4)
	if got != released {
		t.Fatal("outTable did not recycle the released table")
	}
	if got.Len() != 0 || len(got.Vars()) != 3 || got.Vars()[0] != "X" {
		t.Fatalf("recycled table not reset: len=%d vars=%v", got.Len(), got.Vars())
	}
	// Set semantics must survive recycling: stale slot state would break
	// dedup.
	if !got.Add(Tuple{1, 2, 3}) || got.Add(Tuple{1, 2, 3}) || !got.Add(Tuple{1, 2, 4}) {
		t.Fatalf("dedup broken after recycling: %v", got)
	}
	if !got.Contains(Tuple{1, 2, 3}) || !got.Contains(Tuple{1, 2, 4}) || got.Contains(Tuple{9, 9, 9}) {
		t.Fatal("membership broken after recycling")
	}

	// The freelist is LIFO and drains: with it empty, outTable allocates.
	fresh := sc.outTable([]string{"Q"}, 2)
	if fresh == released {
		t.Fatal("outTable returned a table that was already handed out")
	}
}

// TestScratchReset drops the freelist so previously released tables are
// never handed out again, while keeping the grown buffers.
func TestScratchReset(t *testing.T) {
	sc := NewScratch()
	tab := mkTable(t, []string{"X"}, Tuple{1}, Tuple{2})
	sc.Release(tab)
	sc.Reset()
	if got := sc.outTable([]string{"X"}, 1); got == tab {
		t.Fatal("Reset did not drop the freelist")
	}
	// Reset on nil is a no-op, as are Release and the buffer getters.
	var nilSc *Scratch
	nilSc.Reset()
	nilSc.Release(tab)
	if n := len(nilSc.matchedBuf(5)); n != 5 {
		t.Fatalf("nil scratch matchedBuf len %d", n)
	}
	if n := len(nilSc.tupleBuf(3)); n != 3 {
		t.Fatalf("nil scratch tupleBuf len %d", n)
	}
	if n := len(nilSc.hashBuf()); n != probeBlock {
		t.Fatalf("nil scratch hashBuf len %d", n)
	}
	if got := nilSc.outTable([]string{"Y"}, 2); got == nil || len(got.Vars()) != 1 {
		t.Fatal("nil scratch outTable broken")
	}
}

// TestScratchBufferGrowth drives every buffer getter through its grow and
// reuse branches: a small request after a large one must reuse (and, for
// matchedBuf, clear) the existing array.
func TestScratchBufferGrowth(t *testing.T) {
	sc := NewScratch()
	m := sc.matchedBuf(8)
	for i := range m {
		m[i] = true
	}
	m2 := sc.matchedBuf(4)
	if len(m2) != 4 {
		t.Fatalf("matchedBuf len %d", len(m2))
	}
	for i, v := range m2 {
		if v {
			t.Fatalf("matchedBuf[%d] not cleared on reuse", i)
		}
	}
	if len(sc.matchedBuf(64)) != 64 {
		t.Fatal("matchedBuf did not grow")
	}

	b := sc.tupleBuf(2)
	b[0] = 7
	if b2 := sc.tupleBuf(1); len(b2) != 1 || b2[0] != 7 {
		t.Fatalf("tupleBuf did not reuse storage: %v", b2)
	}
	if len(sc.tupleBuf(16)) != 16 {
		t.Fatal("tupleBuf did not grow")
	}

	h1 := sc.hashBuf()
	h2 := sc.hashBuf()
	if &h1[0] != &h2[0] {
		t.Fatal("hashBuf reallocated on reuse")
	}
}

// TestBuildChainIndexScratchReuse checks the chain-index builder against
// the probe side on growing then shrinking tables, so both the reuse-with-
// clear and reallocation branches of the scratch arrays run — a stale head
// entry would surface as a phantom semijoin match.
func TestBuildChainIndexScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sc := NewScratch()
	for _, rows := range []int{700, 40, 3, 900, 0} {
		a := randomTable(rng, []string{"X", "Y"}, 25, rows)
		b := randomTable(rng, []string{"Y", "Z"}, 25, 300)
		if want, got := a.Semijoin(b).Len(), a.SemijoinS(b, sc).Len(); want != got {
			t.Fatalf("rows=%d: scratch chain index semijoin has %d rows, want %d", rows, got, want)
		}
	}
}

// TestColStoreResetSlotPolicy pins the recycled-table slot policy: a
// right-sized slot array is cleared in place, a hugely oversized one is
// reallocated at the requested size, and capRows=0 drops it entirely.
func TestColStoreResetSlotPolicy(t *testing.T) {
	big := randomTable(rand.New(rand.NewSource(3)), []string{"A", "B"}, 5000, 2000)
	bigSlots := len(big.slots)
	if bigSlots < slotsFor(4)*8 {
		t.Fatalf("test premise broken: big table has only %d slots", bigSlots)
	}

	// Tiny capacity after a huge table: reallocate, don't pin.
	big.reset([]string{"X"}, 4)
	if got := len(big.slots); got != slotsFor(4) {
		t.Fatalf("oversized slots kept: %d, want %d", got, slotsFor(4))
	}
	if big.Len() != 0 {
		t.Fatalf("reset table has %d rows", big.Len())
	}

	// Same capacity again: cleared in place, no reallocation.
	before := &big.slots[0]
	big.reset([]string{"X"}, 4)
	if &big.slots[0] != before {
		t.Fatal("right-sized slot array was reallocated")
	}

	// capRows=0 on a right-sized table keeps the (cleared) slot array...
	big.reset([]string{"X"}, 0)
	if big.slots == nil {
		t.Fatal("capRows=0 dropped a right-sized slot array")
	}
	// ...but on an oversized one drops it entirely; the table must still
	// accept rows and deduplicate afterwards.
	big2 := randomTable(rand.New(rand.NewSource(4)), []string{"A", "B"}, 5000, 2000)
	big2.reset([]string{"X"}, 0)
	if big2.slots != nil {
		t.Fatal("capRows=0 kept an oversized slot array")
	}
	if !big2.Add(Tuple{1}) || big2.Add(Tuple{1}) {
		t.Fatal("dedup broken after capRows=0 reset")
	}
}

// BenchmarkSemijoinScratch tracks the pooled semijoin's steady state
// against the allocating baseline.
func BenchmarkSemijoinScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomTable(rng, []string{"X", "Y"}, 64, 1024)
	c := randomTable(rng, []string{"Y", "Z"}, 64, 1024)
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if a.Semijoin(c).Len() == 0 {
				b.Fatal("empty semijoin")
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		sc := NewScratch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := a.SemijoinS(c, sc)
			if out.Len() == 0 {
				b.Fatal("empty semijoin")
			}
			sc.Release(out)
		}
	})
}
