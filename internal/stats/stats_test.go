package stats_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// TestCollectMatchesBruteForce recounts every generated database by brute
// force — per-column value frequencies via plain maps over the public row
// iterator — and checks the one-pass collector against it exactly: row
// counts, distinct counts, MCV membership counts, and the top-k property
// (no non-MCV value is more frequent than the least frequent MCV entry).
// The gen shapes cover empty relations (t2-empty-rel), skewed value
// distributions, mixed arities and fancy constant names.
func TestCollectMatchesBruteForce(t *testing.T) {
	for _, shape := range gen.Shapes() {
		shape := shape
		t.Run(shape, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				s, err := gen.NewScenario(seed, shape)
				if err != nil {
					t.Fatal(err)
				}
				st := stats.Collect(s.DB)
				for _, name := range s.DB.RelationNames() {
					r := s.DB.Relation(name)
					rs := st.Relation(name)
					if rs == nil {
						t.Fatalf("seed %d: no stats for relation %s", seed, name)
					}
					if rs.Rows != r.Len() {
						t.Fatalf("seed %d: %s rows %d, want %d", seed, name, rs.Rows, r.Len())
					}
					if len(rs.Cols) != r.Arity() {
						t.Fatalf("seed %d: %s has %d column stats, want %d", seed, name, len(rs.Cols), r.Arity())
					}
					for c := 0; c < r.Arity(); c++ {
						counts := map[relation.Value]int{}
						for i := 0; i < r.Len(); i++ {
							counts[r.Row(i)[c]]++
						}
						col := rs.Cols[c]
						if col.Distinct != len(counts) {
							t.Errorf("seed %d: %s col %d distinct %d, want %d", seed, name, c, col.Distinct, len(counts))
						}
						wantMCV := len(counts)
						if wantMCV > stats.MCVEntries {
							wantMCV = stats.MCVEntries
						}
						if len(col.MCV) != wantMCV {
							t.Errorf("seed %d: %s col %d has %d MCV entries, want %d", seed, name, c, len(col.MCV), wantMCV)
						}
						minMCV := math.MaxInt
						inMCV := map[relation.Value]bool{}
						for _, e := range col.MCV {
							if counts[e.Val] != e.Count {
								t.Errorf("seed %d: %s col %d MCV %v count %d, want %d", seed, name, c, e.Val, e.Count, counts[e.Val])
							}
							if e.Count < minMCV {
								minMCV = e.Count
							}
							inMCV[e.Val] = true
						}
						for v, n := range counts {
							if !inMCV[v] && n > minMCV {
								t.Errorf("seed %d: %s col %d non-MCV value %v count %d exceeds MCV minimum %d", seed, name, c, v, n, minMCV)
							}
						}
					}
				}
			}
		})
	}
}

// TestAtomEstExact pins the estimator where it should be exact: an
// unconstrained atom estimates the full relation, an atom bound to an MCV
// constant estimates that value's true frequency, and a never-interned
// named constant estimates zero.
func TestAtomEstExact(t *testing.T) {
	db := relation.NewDatabase()
	// 6×a, 2×b, 1×c in column 0; column 1 all distinct.
	for i, c := range []string{"a", "a", "a", "a", "a", "a", "b", "b", "c"} {
		db.MustInsertNamed("r", c, fmt.Sprintf("y%d", i))
	}
	st := stats.Collect(db)

	free := st.AtomEst(relation.NewAtom("r", "X", "Y"))
	if free.Rows != 9 {
		t.Errorf("unconstrained estimate %v rows, want 9", free.Rows)
	}
	if free.DistinctOf("X") != 3 || free.DistinctOf("Y") != 9 {
		t.Errorf("distinct estimates X=%v Y=%v, want 3 and 9", free.DistinctOf("X"), free.DistinctOf("Y"))
	}

	bound := st.AtomEst(relation.Atom{Pred: "r", Terms: []relation.Term{relation.CN("a"), relation.V("Y")}})
	if bound.Rows != 6 {
		t.Errorf("MCV-bound estimate %v rows, want exactly 6", bound.Rows)
	}
	if got := st.Selectivity(relation.Atom{Pred: "r", Terms: []relation.Term{relation.CN("a"), relation.V("Y")}}); math.Abs(got-6.0/9.0) > 1e-12 {
		t.Errorf("selectivity %v, want 6/9", got)
	}

	ghost := st.AtomEst(relation.Atom{Pred: "r", Terms: []relation.Term{relation.CN("never-interned"), relation.V("Y")}})
	if ghost.Rows != 0 {
		t.Errorf("ghost-constant estimate %v rows, want 0", ghost.Rows)
	}

	if e := st.AtomEst(relation.NewAtom("nope", "X")); e.Rows != 0 {
		t.Errorf("unknown-relation estimate %v rows, want 0", e.Rows)
	}

	// Repeated variable: r(X,X) can match at most min(d0,d1) rows; the
	// estimate must shrink below the full relation.
	rep := st.AtomEst(relation.NewAtom("r", "X", "X"))
	if rep.Rows >= free.Rows {
		t.Errorf("repeated-variable estimate %v rows did not shrink below %v", rep.Rows, free.Rows)
	}
}

// TestJoinEstFormula checks the join-size composition on a hand-computed
// case: |A|=100 with d(Y)=10 joined with |B|=50 with d(Y)=25 gives
// 100*50/25 = 200 and the shared column's distinct capped sensibly.
func TestJoinEstFormula(t *testing.T) {
	a := stats.Est{Rows: 100, Vars: []string{"X", "Y"}, Distinct: []float64{100, 10}}
	b := stats.Est{Rows: 50, Vars: []string{"Y", "Z"}, Distinct: []float64{25, 50}}
	j := stats.JoinEst(a, b)
	if j.Rows != 200 {
		t.Fatalf("join estimate %v rows, want 200", j.Rows)
	}
	if len(j.Vars) != 3 {
		t.Fatalf("join schema %v, want X,Y,Z", j.Vars)
	}
	// Cartesian: no shared columns multiplies out.
	c := stats.Est{Rows: 7, Vars: []string{"W"}, Distinct: []float64{7}}
	if cart := stats.JoinEst(a, c); cart.Rows != 700 {
		t.Errorf("cartesian estimate %v rows, want 700", cart.Rows)
	}
}

// TestOrderPermutation feeds random inputs through both the DP (n <= 8)
// and greedy (n > 8) branches and checks the result is always a valid
// permutation.
func TestOrderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 5, 8, 9, 12} {
		for trial := 0; trial < 20; trial++ {
			in := make([]stats.Est, n)
			for i := range in {
				rows := float64(rng.Intn(100))
				v1, v2 := fmt.Sprintf("X%d", rng.Intn(n+1)), fmt.Sprintf("X%d", rng.Intn(n+1))
				in[i] = stats.Est{
					Rows:     rows,
					Vars:     []string{v1 + "a", v2 + "b"},
					Distinct: []float64{float64(rng.Intn(100)), float64(rng.Intn(100))},
				}
			}
			order := stats.OrderInto(in, make([]int, len(in)))
			if len(order) != n {
				t.Fatalf("n=%d: order length %d", n, len(order))
			}
			seen := make([]bool, n)
			for _, o := range order {
				if o < 0 || o >= n || seen[o] {
					t.Fatalf("n=%d: order %v is not a permutation", n, order)
				}
				seen[o] = true
			}
		}
	}
}

// TestOrderAvoidsExplosiveJoin is the skew scenario the planner exists
// for: three same-sized tables where the schema-order join A ⋈ B explodes
// (shared column with 3 distinct values) but B ⋈ C stays small (uniform
// column). The cost order must not start with the explosive pair.
func TestOrderAvoidsExplosiveJoin(t *testing.T) {
	in := []stats.Est{
		{Rows: 200, Vars: []string{"X", "Y"}, Distinct: []float64{200, 3}},  // A: skewed Y
		{Rows: 200, Vars: []string{"Y", "Z"}, Distinct: []float64{3, 200}},  // B: skewed Y, uniform Z
		{Rows: 200, Vars: []string{"Z", "W"}, Distinct: []float64{200, 50}}, // C: uniform Z
	}
	order := stats.OrderInto(in, make([]int, len(in)))
	first, second := order[0], order[1]
	if (first == 0 && second == 1) || (first == 1 && second == 0) {
		t.Fatalf("cost order %v starts with the explosive A ⋈ B pair", order)
	}
}

// TestOrderedJoinMatchesGreedy is the row-identity property at the
// relation level: for random table sets, executing the cost order must
// produce exactly the tuple set of the greedy order.
func TestOrderedJoinMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vars := []string{"A", "B", "C", "D", "E"}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(3)
		tables := make([]*relation.Table, n)
		in := make([]stats.Est, n)
		for i := range tables {
			w := 1 + rng.Intn(3)
			perm := rng.Perm(len(vars))[:w]
			cols := make([]string, w)
			for k, p := range perm {
				cols[k] = vars[p]
			}
			tab := relation.NewTable(cols)
			rows := rng.Intn(12)
			tup := make(relation.Tuple, w)
			for r := 0; r < rows; r++ {
				for c := range tup {
					tup[c] = relation.Value(rng.Intn(4))
				}
				tab.Add(tup)
			}
			tables[i] = tab
			dist := make([]float64, w)
			for c := range dist {
				dist[c] = float64(1 + rng.Intn(4))
			}
			in[i] = stats.Est{Rows: float64(tab.Len()), Vars: cols, Distinct: dist}
		}
		got := relation.JoinTablesOrdered(tables, stats.OrderInto(in, make([]int, len(in))))
		want := relation.JoinTablesGreedy(tables)
		if !got.EqualSet(want) {
			t.Fatalf("trial %d: ordered join %v != greedy join %v", trial, got, want)
		}
	}
}
