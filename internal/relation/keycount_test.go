package relation

import (
	"math/rand"
	"testing"
)

// pairCountShapes returns a four-column body and heads keyed on one, two
// and three of its columns: the packed path for the first two, the generic
// key-table path for the third.
func pairCountShapes() (*Table, []*Table) {
	rng := rand.New(rand.NewSource(5))
	body := randomTable(rng, []string{"A", "B", "C", "D"}, 6, 300)
	heads := []*Table{
		randomTable(rng, []string{"A"}, 6, 5),
		randomTable(rng, []string{"A", "B"}, 6, 20),
		randomTable(rng, []string{"A", "B", "C"}, 6, 40),
	}
	return body, heads
}

// TestPairCountsZeroAlloc pins the head-counting kernel's steady state:
// once a KeyCounts and its Scratch have indexed a body, rebuilding and
// counting it again allocates nothing, for one-, two- and three-column
// keys alike. The same holds for a probe index on the body and the Has
// answers of every head row.
func TestPairCountsZeroAlloc(t *testing.T) {
	body, heads := pairCountShapes()
	sc := NewScratch()
	var ix KeyCounts
	for _, h := range heads {
		run := func() {
			ix.Reset(sc)
			if hb, bh := ix.PairCounts(h, body, sc); hb != refSemijoin(h, body).Len() || bh != refSemijoin(body, h).Len() {
				t.Fatalf("%v: PairCounts = (%d, %d), want (%d, %d)", h.Vars(), hb, bh, refSemijoin(h, body).Len(), refSemijoin(body, h).Len())
			}
		}
		run() // warm: the slots and the key table grow to this body
		if got := testing.AllocsPerRun(50, func() {
			ix.Reset(sc)
			ix.PairCounts(h, body, sc)
		}); got != 0 {
			t.Errorf("%d-column key: %v allocs per build and count, want 0", len(h.Vars()), got)
		}
		probe := func() (hits int) {
			ix.Reset(sc)
			ix.Probe(h, body, sc)
			for r := 0; r < h.Len(); r++ {
				if ix.Has(h.Row(r)) {
					hits++
				}
			}
			return hits
		}
		if hits, want := probe(), refSemijoin(h, body).Len(); hits != want {
			t.Fatalf("%v: Has holds for %d head rows, want %d", h.Vars(), hits, want)
		}
		if got := testing.AllocsPerRun(50, func() { probe() }); got != 0 {
			t.Errorf("%d-column key: %v allocs per probe build and Has pass, want 0", len(h.Vars()), got)
		}
	}
}

// TestKeyCountsPassWrap runs count across the wrap of the pass counter.
// A key stamped by a pass before the wrap carries a stamp the counter
// reaches again after it, so the wrap must clear every stamp, or such a
// key would read as already counted.
func TestKeyCountsPassWrap(t *testing.T) {
	body, heads := pairCountShapes()
	for _, h := range heads {
		one := NewTable(h.Vars()) // a head matching fewer body keys
		one.Add(h.Row(0))
		var ix KeyCounts
		ix.build(body, h, nil)
		for _, step := range []struct {
			u    *Table
			pass uint32 // counter before the pass
		}{{h, 0}, {one, ^uint32(0) - 1}, {h, ^uint32(0)}} {
			ix.pass = step.pass
			want := refSemijoin(body, step.u).Len()
			if got, _ := ix.count(step.u, nil); got != want {
				t.Fatalf("%d-column key, counter %d: |body ⋉ u| = %d, want %d", len(h.Vars()), step.pass, got, want)
			}
		}
	}
}
