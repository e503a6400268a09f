package engine

import (
	"context"
	"math/rand"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/workload"
)

// schemaFamily is the canonical pure-metaquery family over binary
// relations with bodies of up to three literals: chains, stars (binary
// head), the 3-cycle (hypertree width 2) and the same-arity template.
var schemaFamily = []string{
	"R(X0,X1) <- P1(X0,X1)",
	"R(X0,X2) <- P1(X0,X1), P2(X1,X2)",
	"R(X0,X1) <- P1(X0,X1), P2(X0,X2)",
	"R(X0,X3) <- P1(X0,X1), P2(X1,X2), P3(X2,X3)",
	"R(X0,X1) <- P1(X0,X1), P2(X0,X2), P3(X0,X3)",
	"R(X0,X1) <- P1(X0,X1), P2(X1,X2), P3(X2,X0)",
	"R(X1,X2) <- P(X1,X2)",
}

// The engine must agree with the naive reference across the whole
// schema family, on random databases, for all types.
// This is the broadest differential sweep in the suite.
func TestFindRulesMatchesNaiveOnGeneratedFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("family sweep skipped in -short mode")
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := workload.Random{
			Relations: 2 + rng.Intn(2),
			Arity:     2,
			Tuples:    4 + rng.Intn(5),
			Domain:    3,
			Seed:      seed,
		}.Build()
		th := core.AllAbove(rat.New(1, 5), rat.Zero, rat.Zero)
		for _, text := range schemaFamily {
			mq := core.MustParse(text)
			for _, typ := range []core.InstType{core.Type0, core.Type1} {
				want, err := core.NaiveAnswers(db, mq, typ, th)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: typ, Thresholds: th})
				if err != nil {
					t.Fatal(err)
				}
				assertSameAnswers(t, got, want, mq.String()+" "+typ.String())
			}
		}
	}
}
