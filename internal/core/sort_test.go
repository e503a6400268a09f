package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// randomAnswers draws n answers over a tiny vocabulary, so equal rule
// texts and equal index triples are common. Each answer carries its own
// *Instantiation, which identifies it across sorts.
func randomAnswers(rng *rand.Rand, n int) []Answer {
	terms := []relation.Term{
		relation.V("X"), relation.V("Y"), relation.CN("c"), relation.CN("Big"),
		relation.C(1), {ConstName: "c", Const: 7},
	}
	atom := func() relation.Atom {
		ts := make([]relation.Term, 1+rng.Intn(2))
		for i := range ts {
			ts[i] = terms[rng.Intn(len(terms))]
		}
		return relation.Atom{Pred: []string{"p", "q"}[rng.Intn(2)], Terms: ts}
	}
	idx := []rat.Rat{rat.Zero, rat.New(1, 2), rat.One}
	as := make([]Answer, n)
	for i := range as {
		body := make([]relation.Atom, rng.Intn(3))
		for j := range body {
			body[j] = atom()
		}
		as[i] = Answer{
			Inst: NewInstantiation(),
			Rule: Rule{Head: atom(), Body: body},
			Sup:  idx[rng.Intn(3)], Cnf: idx[rng.Intn(3)], Cvr: idx[rng.Intn(3)],
		}
	}
	return as
}

// TestSortAnswersMatchesRenderingComparator pins SortAnswers to the exact
// permutation of the comparator it replaced, which rendered both rules on
// every comparison: not merely a sorted order, but the same order among
// answers with equal rule text.
func TestSortAnswersMatchesRenderingComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 17, 2000} {
		as := randomAnswers(rng, n)
		want := append([]Answer(nil), as...)
		sort.Slice(want, func(i, j int) bool { return want[i].Rule.String() < want[j].Rule.String() })
		SortAnswers(as)
		ties := 0
		for i := range as {
			if as[i].Inst != want[i].Inst {
				t.Fatalf("n=%d: position %d holds %q, reference holds %q", n, i, as[i].Rule, want[i].Rule)
			}
			if i > 0 && as[i].Rule.String() == as[i-1].Rule.String() {
				ties++
			}
		}
		if n == 2000 && ties == 0 {
			t.Fatal("generator produced no equal rule texts")
		}
	}
}

// TestSortAnswersAllocs keeps rendering out of the comparator: sorting n
// answers renders each rule once, so it allocates at most n+1 times
// (in fact a constant number, the shared text buffer and its spans).
func TestSortAnswersAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 17, 2000} {
		as := randomAnswers(rng, n)
		got := testing.AllocsPerRun(5, func() {
			rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
			SortAnswers(as)
		})
		if got > float64(n+1) {
			t.Errorf("sorting %d answers allocated %.0f times, want at most %d", n, got, n+1)
		}
	}
}

func TestRuleAndMetaqueryString(t *testing.T) {
	r := Rule{
		Head: relation.Atom{Pred: "p", Terms: []relation.Term{relation.V("X"), relation.CN("Big"), relation.C(3)}},
		Body: []relation.Atom{relation.NewAtom("q", "X"), {Pred: "r", Terms: []relation.Term{relation.CN("c")}}},
	}
	if got, want := r.String(), `p(X,"Big",#3) <- q(X), r(c)`; got != want {
		t.Errorf("rule = %s, want %s", got, want)
	}
	if got, want := (Rule{Head: relation.NewAtom("p")}).String(), "p() <- "; got != want {
		t.Errorf("empty-body rule = %q, want %q", got, want)
	}
	mq := &Metaquery{Head: Pattern("R", "X", "a b"), Body: []LiteralScheme{SchemeAtom("Rel", "X"), Pattern("Q", "X", "c")}}
	if got, want := mq.String(), `R(X,"a b") <- "Rel"(X), Q(X,c)`; got != want {
		t.Errorf("metaquery = %s, want %s", got, want)
	}
}

func TestBodyAtomsDedupKeepsFirstOccurrence(t *testing.T) {
	p, q := relation.NewAtom("p", "X"), relation.NewAtom("q", "X")
	r := Rule{Head: p, Body: []relation.Atom{q, p, q, relation.NewAtom("p", "X"), relation.NewAtom("p", "Y")}}
	got := r.BodyAtoms()
	want := []string{"q(X)", "p(X)", "p(Y)"}
	if len(got) != len(want) {
		t.Fatalf("BodyAtoms = %v, want %v", got, want)
	}
	for i := range got {
		if got[i].String() != want[i] {
			t.Fatalf("BodyAtoms = %v, want %v", got, want)
		}
	}
}

// TestAtomCacheHitsDoNotAllocate pins the render-free cache lookup: once
// an atom's table and estimate are cached, looking them up again builds
// no key string.
func TestAtomCacheHitsDoNotAllocate(t *testing.T) {
	db := db1(t)
	ev := NewEvaluatorStats(db, stats.Collect(db))
	a := relation.NewAtom("UsCa", "X", "Y")
	if _, err := ev.TableFor(a); err != nil {
		t.Fatal(err)
	}
	ev.AtomEst(a)
	if got := testing.AllocsPerRun(100, func() { _, _ = ev.TableFor(a) }); got != 0 {
		t.Errorf("TableFor hit allocated %.1f times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { ev.AtomEst(a) }); got != 0 {
		t.Errorf("AtomEst hit allocated %.1f times, want 0", got)
	}
}

// BenchmarkSortAnswers sorts shuffled answer sets; allocs/op is the
// number of allocations per sort.
func BenchmarkSortAnswers(b *testing.B) {
	for _, n := range []int{10, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			src := randomAnswers(rand.New(rand.NewSource(3)), n)
			as := make([]Answer, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(as, src)
				SortAnswers(as)
			}
		})
	}
}

// BenchmarkTableForHit looks up a cached atom table; it reports 0
// allocs/op.
func BenchmarkTableForHit(b *testing.B) {
	ev := NewEvaluator(db1(b))
	a := relation.NewAtom("UsCa", "X", "Y")
	if _, err := ev.TableFor(a); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.TableFor(a); err != nil {
			b.Fatal(err)
		}
	}
}
