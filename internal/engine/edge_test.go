package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// An entirely empty database yields no answers under any checked threshold
// and all-zero-index answers when nothing is checked.
func TestFindRulesEmptyDatabase(t *testing.T) {
	db := relation.NewDatabase()
	db.MustAddRelation("p", 2)
	db.MustAddRelation("q", 2)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")

	checked, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{
		Type:       core.Type0,
		Thresholds: core.AllAbove(rat.Zero, rat.Zero, rat.Zero),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(checked) != 0 {
		t.Errorf("empty database produced %d answers", len(checked))
	}

	unchecked, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0})
	if err != nil {
		t.Fatal(err)
	}
	if len(unchecked) != 8 { // 2^3 instantiations
		t.Errorf("unchecked answers = %d, want 8", len(unchecked))
	}
	for _, a := range unchecked {
		if !a.Sup.IsZero() || !a.Cnf.IsZero() || !a.Cvr.IsZero() {
			t.Errorf("non-zero index on empty database: %+v", a)
		}
	}
}

// A head variable absent from the body: cover semantics degrade to the
// cartesian fraction, still matching the naive engine.
func TestFindRulesHeadOnlyVariable(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("q", "a", "c")
	db.MustInsertNamed("q", "x", "y")
	mq := core.MustParse("R(X,W) <- P(X,Y)")
	th := core.Thresholds{}
	want, err := core.NaiveAnswers(db, mq, core.Type0, th)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, got, want, "head-only var")
}

// Bodies with a single literal exercise the one-node decomposition.
func TestFindRulesSingleLiteralBody(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("q", "a", "b")
	db.MustInsertNamed("q", "b", "a")
	mq := core.MustParse("R(X,Y) <- P(X,Y)")
	for _, typ := range []core.InstType{core.Type0, core.Type1, core.Type2} {
		th := core.SingleIndex(core.Cnf, rat.New(1, 4))
		want, err := core.NaiveAnswers(db, mq, typ, th)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: typ, Thresholds: th})
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, got, want, "single literal "+typ.String())
	}
}

// Repeated variables inside patterns (diagonal selections) must survive the
// decomposition pipeline.
func TestFindRulesRepeatedVariables(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "a")
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("q", "a", "a")
	db.MustInsertNamed("q", "b", "b")
	mq := core.MustParse("R(X,X) <- P(X,X), Q(X,X)")
	th := core.Thresholds{}
	want, err := core.NaiveAnswers(db, mq, core.Type0, th)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, got, want, "repeated vars")
}

// Zero-arity relations are legal degenerate databases.
func TestFindRulesZeroArity(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustAddRelation("unit", 0)
	r.Insert(relation.Tuple{})
	mq := core.MustParse("R() <- P()")
	th := core.Thresholds{}
	got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NaiveAnswers(db, mq, core.Type0, th)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, got, want, "zero arity")
	if len(got) != 1 {
		t.Errorf("answers = %d, want 1", len(got))
	}
	// unit() <- unit() holds totally.
	if !got[0].Cnf.Equal(rat.One) || !got[0].Sup.Equal(rat.One) {
		t.Errorf("indices = %+v", got[0])
	}
}

// Limit interacts with sorted output: the single returned answer must be a
// valid answer (not necessarily the lexicographically first).
func TestFindRulesLimitValidity(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("q", "b", "c")
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	th := core.SingleIndex(core.Sup, rat.Zero)
	got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0, Thresholds: th, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("limit 2 returned %d answers", len(got))
	}
	for _, a := range got {
		if !a.Sup.Greater(rat.Zero) {
			t.Errorf("limited answer violates threshold: %+v", a)
		}
	}
}

// The engine must reject what the core validation rejects.
func TestFindRulesValidation(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	impure := core.MustParse("P(X) <- P(X,Y)")
	if _, _, err := NewEngine(db).FindRulesStats(context.Background(), impure, Options{Type: core.Type0}); err == nil {
		t.Error("impure metaquery accepted under type-0")
	}
	missing := core.MustParse("R(X) <- nosuch(X)")
	if _, _, err := NewEngine(db).FindRulesStats(context.Background(), missing, Options{Type: core.Type2}); err == nil {
		t.Error("unknown relation accepted")
	}
}

// Thresholds at the top of the range: k arbitrarily close to 1 still
// behaves strictly; cnf = 1 passes k = 99999/100000.
func TestFindRulesNearOneThreshold(t *testing.T) {
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("q", "a", "b")
	mq := core.MustParse("Q(X,Y) <- P(X,Y)")
	th := core.SingleIndex(core.Cnf, rat.New(99999, 100000))
	got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type0, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	foundPerfect := false
	for _, a := range got {
		if !a.Cnf.Equal(rat.One) {
			t.Errorf("answer with cnf %v passed k≈1", a.Cnf)
		}
		foundPerfect = true
	}
	if !foundPerfect {
		t.Error("perfect-confidence rule missing")
	}
}

// TestHeadCountsEdgeCases checks the one-pass head counting (cvr and cnf
// from KeyCounts.PairCounts, with the body index reused across a body's
// heads, and memoized per epoch by Evaluator.PairCounts) against the naive
// engine on the shapes where the choice of indexed side matters: FindRules
// must reproduce every answer and its indices, and DecideFirst on cnf and
// cvr must reproduce the naive verdict at every index value that occurs
// (the boundary where verdicts flip).
func TestHeadCountsEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		mq   string
		typ  core.InstType
		fill func(db *relation.Database)
		// perBodyBuild asserts the body-index builds of each run: the heads
		// are column permutations of one relation, all smaller than the
		// body, so they share one index keyed in the body's order. Every
		// body is one shared atom table, so the first run of an epoch
		// builds one index per body and every later run builds none (the
		// evaluator's pair-count memo answers). The case's bodies range
		// over two relations, t and u, and a delta to t must rebuild only
		// t's bodies.
		perBodyBuild bool
	}{
		{
			name: "type-1 head permutations share one body index",
			mq:   "R(X,Z) <- P(X,Y,Z)",
			typ:  core.Type1,
			fill: func(db *relation.Database) {
				for i := 0; i < 12; i++ {
					db.MustInsertNamed("t", fmt.Sprint("a", i%3), fmt.Sprint("b", i%4), fmt.Sprint("a", i%5))
				}
				for i := 0; i < 8; i++ {
					db.MustInsertNamed("u", fmt.Sprint("a", i%4), fmt.Sprint("a", i%3), fmt.Sprint("b", i))
				}
				for _, tup := range [][]string{{"a0", "a0"}, {"a1", "a3"}, {"a2", "a1"}} {
					db.MustInsertNamed("r", tup...)
				}
			},
			perBodyBuild: true,
		},
		{
			name: "type-2 head padded outside the body repeats keys",
			mq:   "R(X) <- P(X,Y)",
			typ:  core.Type2,
			fill: func(db *relation.Database) {
				for i := 0; i < 9; i++ {
					db.MustInsertNamed("p", fmt.Sprint("c", i%4), fmt.Sprint("d", i))
				}
				for i := 0; i < 6; i++ {
					db.MustInsertNamed("s", fmt.Sprint("c", i%2), fmt.Sprint("e", i), fmt.Sprint("f", i%3))
				}
			},
		},
		{
			name: "head sharing no variable with the body",
			mq:   "R(U,W) <- P(X,Y)",
			typ:  core.Type0,
			fill: func(db *relation.Database) {
				db.MustInsertNamed("p", "a", "b")
				db.MustInsertNamed("p", "b", "c")
				db.MustInsertNamed("q", "x", "y")
			},
		},
		{
			name: "body join smaller than every head",
			mq:   "R(X,Z) <- P(X,Y), Q(Y,Z)",
			typ:  core.Type1,
			fill: func(db *relation.Database) {
				db.MustInsertNamed("p", "a", "b")
				db.MustInsertNamed("q", "b", "c")
				for i := 0; i < 8; i++ {
					db.MustInsertNamed("h", fmt.Sprint("a", i%2), fmt.Sprint("c", i%3))
					db.MustInsertNamed("h", fmt.Sprint("c", i%3), fmt.Sprint("a", i))
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := relation.NewDatabase()
			tc.fill(db)
			mq := core.MustParse(tc.mq)
			want, err := core.NaiveAnswers(db, mq, tc.typ, core.Thresholds{})
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTracer()
			eng := NewEngine(db.Clone())
			prep, err := eng.Prepare(mq, Options{Type: tc.typ, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := prep.FindRulesStats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswers(t, got, want, tc.name)

			for _, ix := range []core.Index{core.Cnf, core.Cvr} {
				value := func(a core.Answer) rat.Rat {
					if ix == core.Cnf {
						return a.Cnf
					}
					return a.Cvr
				}
				ks := map[rat.Rat]bool{rat.Zero: true}
				for _, a := range want {
					ks[value(a)] = true
				}
				for k := range ks {
					wantYes := false
					for _, a := range want {
						wantYes = wantYes || value(a).Greater(k)
					}
					yes, wit, err := prep.DecideFirst(context.Background(), ix, k)
					if err != nil {
						t.Fatal(err)
					}
					if yes != wantYes {
						t.Fatalf("DecideFirst(%v > %v) = %v, naive says %v", ix, k, yes, wantYes)
					}
					if yes {
						rule, err := wit.Apply(mq)
						if err != nil {
							t.Fatal(err)
						}
						if v, err := ix.Compute(db, rule); err != nil || !v.Greater(k) {
							t.Fatalf("DecideFirst(%v > %v) witness %s has %v (%v)", ix, k, rule, v, err)
						}
					}
				}
			}

			if !tc.perBodyBuild {
				return
			}
			runRoots := func() []*obs.SpanTree {
				var out []*obs.SpanTree
				for _, root := range tr.Tree() {
					if root.Name == "findrules" || root.Name == "decide" {
						out = append(out, root)
					}
				}
				return out
			}
			roots := runRoots()
			if len(roots) < 2 {
				t.Fatalf("%d traced runs, want the FindRules and the decisions", len(roots))
			}
			first := roots[0]
			if first.Name != "findrules" || first.Attrs["bodies"] == "0" || first.Attrs["key_indexes"] != first.Attrs["bodies"] {
				t.Fatalf("first %s root: %s key-count index builds for %s bodies, want one per body",
					first.Name, first.Attrs["key_indexes"], first.Attrs["bodies"])
			}
			for _, root := range roots[1:] {
				if root.Attrs["key_indexes"] != "0" {
					t.Fatalf("later %s root: %s key-count index builds, want 0 (memoized pair counts)",
						root.Name, root.Attrs["key_indexes"])
				}
			}

			// A delta to t re-materializes t's atom tables only: t's bodies
			// rebuild their index, u's keep their memoized counts.
			if _, err := eng.Apply(context.Background(), Delta{Relations: []RelationDelta{
				{Name: "t", Insert: [][]string{{"a1", "b9", "a0"}}},
			}}); err != nil {
				t.Fatal(err)
			}
			db.MustInsertNamed("t", "a1", "b9", "a0")
			want, err = core.NaiveAnswers(db, mq, tc.typ, core.Thresholds{})
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := prep.FindRulesStats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswers(t, got, want, tc.name+" after the delta")
			roots = runRoots()
			last := roots[len(roots)-1]
			if st.BodiesReachedRoot != 12 || last.Attrs["key_indexes"] != "6" {
				t.Fatalf("after a delta to t: %s key-count index builds for %d bodies, want 6 (t's six permutations) of 12",
					last.Attrs["key_indexes"], st.BodiesReachedRoot)
			}
		})
	}
}
