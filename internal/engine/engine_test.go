package engine

import (
	"context"
	"math/rand"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// db1 is the Figure 1 database.
func db1(t testing.TB) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	db.MustInsertNamed("UsCa", "John K.", "Omnitel")
	db.MustInsertNamed("UsCa", "John K.", "Tim")
	db.MustInsertNamed("UsCa", "Anastasia A.", "Omnitel")
	db.MustInsertNamed("CaTe", "Tim", "ETACS")
	db.MustInsertNamed("CaTe", "Tim", "GSM 900")
	db.MustInsertNamed("CaTe", "Tim", "GSM 1800")
	db.MustInsertNamed("CaTe", "Omnitel", "GSM 900")
	db.MustInsertNamed("CaTe", "Omnitel", "GSM 1800")
	db.MustInsertNamed("CaTe", "Wind", "GSM 1800")
	db.MustInsertNamed("UsPT", "John K.", "GSM 900")
	db.MustInsertNamed("UsPT", "John K.", "GSM 1800")
	db.MustInsertNamed("UsPT", "Anastasia A.", "GSM 900")
	return db
}

// assertSameAnswers compares engine output with the naive reference.
func assertSameAnswers(t *testing.T, got, want []core.Answer, label string) {
	t.Helper()
	if len(got) != len(want) {
		gotR := make([]string, len(got))
		for i, a := range got {
			gotR[i] = a.Rule.String()
		}
		wantR := make([]string, len(want))
		for i, a := range want {
			wantR[i] = a.Rule.String()
		}
		t.Fatalf("%s: %d answers, want %d\n got: %v\nwant: %v", label, len(got), len(want), gotR, wantR)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Rule.String() != w.Rule.String() {
			t.Fatalf("%s: answer %d rule %s, want %s", label, i, g.Rule, w.Rule)
		}
		if !g.Sup.Equal(w.Sup) || !g.Cnf.Equal(w.Cnf) || !g.Cvr.Equal(w.Cvr) {
			t.Errorf("%s: %s indices sup=%v/%v cnf=%v/%v cvr=%v/%v",
				label, g.Rule, g.Sup, w.Sup, g.Cnf, w.Cnf, g.Cvr, w.Cvr)
		}
	}
}

func TestFindRulesMatchesNaiveOnFigure1(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	for _, typ := range []core.InstType{core.Type0, core.Type1, core.Type2} {
		for _, th := range []core.Thresholds{
			core.AllAbove(rat.Zero, rat.Zero, rat.Zero),
			core.AllAbove(rat.New(1, 2), rat.New(1, 2), rat.New(1, 2)),
			core.SingleIndex(core.Cnf, rat.New(2, 3)),
			core.SingleIndex(core.Sup, rat.New(9, 10)),
			core.SingleIndex(core.Cvr, rat.Zero),
		} {
			want, err := core.NaiveAnswers(db, mq, typ, th)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: typ, Thresholds: th})
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswers(t, got, want, typ.String())
		}
	}
}

func TestFindRulesPaperRuleIndices(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	answers, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{
		Type:       core.Type0,
		Thresholds: core.AllAbove(rat.New(1, 2), rat.New(1, 2), rat.New(1, 2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var hit *core.Answer
	for i := range answers {
		if answers[i].Rule.String() == "UsPT(X,Z) <- UsCa(X,Y), CaTe(Y,Z)" {
			hit = &answers[i]
		}
	}
	if hit == nil {
		t.Fatal("paper rule missing")
	}
	if !hit.Cnf.Equal(rat.New(5, 7)) || !hit.Cvr.Equal(rat.One) || !hit.Sup.Equal(rat.One) {
		t.Errorf("indices sup=%v cnf=%v cvr=%v", hit.Sup, hit.Cnf, hit.Cvr)
	}
}

// Cyclic bodies exercise the width-2 hypertree path.
func TestFindRulesCyclicBody(t *testing.T) {
	db := relation.NewDatabase()
	edges := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"b", "a"}, {"c", "b"}, {"a", "c"}, {"a", "d"}}
	for _, e := range edges {
		db.MustInsertNamed("e", e[0], e[1])
		db.MustInsertNamed("f", e[0], e[1])
	}
	mq := core.MustParse("R(X,Y) <- P(X,Y), Q(Y,Z), S(Z,X)")
	th := core.AllAbove(rat.Zero, rat.Zero, rat.Zero)
	want, err := core.NaiveAnswers(db, mq, core.Type0, th)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Width != 2 {
		t.Errorf("triangle body width = %d, want 2", stats.Width)
	}
	assertSameAnswers(t, got, want, "cyclic")
}

// Shared predicate variables between head and body.
func TestFindRulesSharedHeadBodyPredVar(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("p", "b", "c")
	db.MustInsertNamed("q", "a", "c")
	mq := core.MustParse("P(X,Z) <- P(X,Y), Q(Y,Z)")
	th := core.Thresholds{}
	want, err := core.NaiveAnswers(db, mq, core.Type0, th)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, got, want, "shared predvar")
	// Functionality: head P and body P must always match the same relation.
	for _, a := range got {
		if a.Rule.Head.Pred != a.Rule.Body[0].Pred {
			t.Errorf("functionality violated: %s", a.Rule)
		}
	}
}

// Head identical to a body literal (the Theorem 3.21/3.33 construction
// shape) must work and agree with naive.
func TestFindRulesHeadEqualsBodyLiteral(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("e", "1", "2")
	db.MustInsertNamed("e", "2", "3")
	db.MustInsertNamed("g", "1", "2")
	mq := core.MustParse("E(X,Y) <- E(X,Y), E(Y,Z)")
	th := core.SingleIndex(core.Sup, rat.Zero)
	want, err := core.NaiveAnswers(db, mq, core.Type0, th)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, got, want, "head=body")
}

// Ordinary atoms mixed with patterns.
func TestFindRulesMixedAtoms(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("e", "1", "2")
	db.MustInsertNamed("e", "2", "1")
	db.MustInsertNamed("col", "1")
	db.MustInsertNamed("col", "2")
	mq := core.MustParse("P(X) <- e(X,Y), Q(Y)")
	th := core.Thresholds{}
	want, err := core.NaiveAnswers(db, mq, core.Type0, th)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, got, want, "mixed")
}

func TestFindRulesLimit(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{
		Type:       core.Type0,
		Thresholds: core.SingleIndex(core.Sup, rat.Zero),
		Limit:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("Limit=1 returned %d answers", len(got))
	}
}

// Differential property test: random databases, random metaqueries, random
// thresholds, all types — engine must equal naive.
func TestQuickFindRulesMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	metaqueries := []string{
		"R(X,Z) <- P(X,Y), Q(Y,Z)",
		"P(X,Y) <- P(Y,Z), Q(Z,W)",
		"P(X,Y) <- Q(Y,Z), P(Z,W)",
		"R(X,Y) <- P(X,Y), Q(Y,Z), S(Z,X)",
		"N(X) <- N(Y), E(X,Y)",
		"R(X) <- P(X,X)",
		"P(X,Z) <- P(X,Y), P(Y,Z)",
	}
	ths := []core.Thresholds{
		core.AllAbove(rat.Zero, rat.Zero, rat.Zero),
		core.AllAbove(rat.New(1, 4), rat.New(1, 4), rat.New(1, 4)),
		core.SingleIndex(core.Cnf, rat.New(1, 2)),
		core.SingleIndex(core.Sup, rat.New(1, 2)),
		core.SingleIndex(core.Cvr, rat.New(1, 2)),
		{},
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 2+rng.Intn(2), 2, 6, 3)
		mqText := metaqueries[rng.Intn(len(metaqueries))]
		mq := core.MustParse(mqText)
		th := ths[rng.Intn(len(ths))]
		for _, typ := range []core.InstType{core.Type0, core.Type1, core.Type2} {
			want, err := core.NaiveAnswers(db, mq, typ, th)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: typ, Thresholds: th})
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswers(t, got, want, mqText+" "+typ.String())
		}
	}
}

func TestStatsCounters(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	_, stats, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{
		Type:       core.Type0,
		Thresholds: core.SingleIndex(core.Sup, rat.New(99, 100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Width != 1 {
		t.Errorf("width = %d, want 1", stats.Width)
	}
	if stats.BodyCandidatesTried == 0 {
		t.Error("no body candidates tried")
	}
	if stats.BodiesReachedRoot == 0 {
		t.Error("no body reached the root")
	}
}

// randomDB builds a small random database.
func randomDB(rng *rand.Rand, nRel, arity, maxTuples, dom int) *relation.Database {
	db := relation.NewDatabase()
	consts := make([]string, dom)
	for i := range consts {
		consts[i] = string(rune('a' + i))
	}
	for i := 0; i < nRel; i++ {
		name := string(rune('p' + i))
		db.MustAddRelation(name, arity)
		n := rng.Intn(maxTuples + 1)
		for j := 0; j < n; j++ {
			row := make([]string, arity)
			for k := range row {
				row[k] = consts[rng.Intn(dom)]
			}
			db.MustInsertNamed(name, row...)
		}
	}
	return db
}
