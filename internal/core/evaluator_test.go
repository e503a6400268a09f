package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/stats"
)

// BenchmarkEvaluatorJoin joins the first 1, 2 and 3 atoms of the chain
// p(X,Y), q(Y,Z), r(Z,W) (200 tuples each over 40 constants) through
// Evaluator.Join with warm atom and estimate caches, on evaluators with
// and without statistics; allocs/op is the cost of one join beyond its
// build/probe passes.
func BenchmarkEvaluatorJoin(b *testing.B) {
	db := relation.NewDatabase()
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"p", "q", "r"} {
		rel := db.MustAddRelation(name, 2)
		for i := 0; i < 200; i++ {
			rel.Insert(relation.Tuple{
				db.Dict().Intern(fmt.Sprint(rng.Intn(40))),
				db.Dict().Intern(fmt.Sprint(rng.Intn(40))),
			})
		}
	}
	chain := []relation.Atom{
		relation.NewAtom("p", "X", "Y"),
		relation.NewAtom("q", "Y", "Z"),
		relation.NewAtom("r", "Z", "W"),
	}
	evs := []struct {
		name string
		ev   *Evaluator
	}{
		{"stats", NewEvaluatorStats(db, stats.Collect(db))},
		{"nostats", NewEvaluator(db)},
	}
	for _, e := range evs {
		for n := 1; n <= len(chain); n++ {
			atoms := chain[:n]
			b.Run(fmt.Sprintf("%s/atoms=%d", e.name, n), func(b *testing.B) {
				if _, err := e.ev.Join(atoms); err != nil { // warm the caches
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.ev.Join(atoms); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
