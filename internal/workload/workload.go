// Package workload provides the databases and metaqueries used by the
// examples, experiments and benchmarks: the paper's Figure 1/2 database
// DB1, random databases, and structured scaling workloads (chains, stars,
// cycles) whose bodies have known hypertree widths.
package workload

import (
	"fmt"
	"math/rand"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/relation"
)

// DB1 builds the Figure 1 database: relations UsCa(User, Carrier),
// CaTe(Carrier, Technology) and UsPT(User, PhoneType).
func DB1() *relation.Database {
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

// DB1Extended builds the Figure 2 variant: UsPT gains a Model column.
func DB1Extended() *relation.Database {
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
	db.MustInsertNamed("UsPT", "John K.", "GSM 900", "Nokia 6150")
	db.MustInsertNamed("UsPT", "John K.", "GSM 1800", "Nokia 6150")
	db.MustInsertNamed("UsPT", "Anastasia A.", "GSM 900", "Bosch 607")
	return db
}

// MQ4 returns the paper's running metaquery (4): R(X,Z) <- P(X,Y), Q(Y,Z).
func MQ4() *core.Metaquery { return core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)") }

// The decision workload: big data, tiny answers. Four 25k-row binary
// body relations p0..p3 and six unary head relations h0..h5 over 97
// values, for the metaquery R(Y) <- P(X,Y).
const (
	DecideBodyRels = 4
	DecideBodyRows = 25_000
	DecideHeadRels = 6
	DecideHeadVals = 97
)

// DecideDB builds the decision workload deterministically. Column 0 of a
// body relation is a unique key; column 1 hits the head domain v0..v96 on
// every fifth row and is otherwise private noise. Every head holds the
// whole head domain, so every (body, head) pair has confidence 1/5.
func DecideDB() *relation.Database {
	db := relation.NewDatabase()
	for i := 0; i < DecideBodyRels; i++ {
		name := fmt.Sprintf("p%d", i)
		for j := 0; j < DecideBodyRows; j++ {
			v := fmt.Sprintf("z%d-%d", i, j)
			if j%5 == 0 {
				v = fmt.Sprintf("v%d", j%DecideHeadVals)
			}
			db.MustInsertNamed(name, fmt.Sprintf("p%dx%d", i, j), v)
		}
	}
	for i := 0; i < DecideHeadRels; i++ {
		name := fmt.Sprintf("h%d", i)
		for k := 0; k < DecideHeadVals; k++ {
			db.MustInsertNamed(name, fmt.Sprintf("v%d", k))
		}
	}
	return db
}

// Random describes a synthetic database workload.
type Random struct {
	Relations int // number of relations
	Arity     int // arity of every relation
	Tuples    int // tuples per relation
	Domain    int // active-domain size
	Seed      int64
}

// Build materializes the workload deterministically from its seed.
// Relations are named r0, r1, ...; constants are d0, d1, ....
func (w Random) Build() *relation.Database {
	rng := rand.New(rand.NewSource(w.Seed))
	db := relation.NewDatabase()
	for r := 0; r < w.Relations; r++ {
		name := fmt.Sprintf("r%d", r)
		db.MustAddRelation(name, w.Arity)
		for i := 0; i < w.Tuples; i++ {
			row := make([]string, w.Arity)
			for j := range row {
				row[j] = fmt.Sprintf("d%d", rng.Intn(w.Domain))
			}
			db.MustInsertNamed(name, row...)
		}
	}
	return db
}

// ChainDB builds a layered database where relation r_i connects layer i to
// layer i+1; chains of joins through it stay selective. Each layer has
// `width` constants and each relation `tuples` random edges between
// adjacent layers.
func ChainDB(layers, width, tuples int, seed int64) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	for l := 0; l < layers; l++ {
		name := fmt.Sprintf("r%d", l)
		db.MustAddRelation(name, 2)
		for i := 0; i < tuples; i++ {
			a := fmt.Sprintf("n%d_%d", l, rng.Intn(width))
			b := fmt.Sprintf("n%d_%d", l+1, rng.Intn(width))
			db.MustInsertNamed(name, a, b)
		}
	}
	return db
}

// ChainMQ returns the width-1 (semi-acyclic) chain metaquery
// R(X0,Xm) <- P0(X0,X1), ..., Pm-1(Xm-1,Xm) with m body patterns.
func ChainMQ(m int) *core.Metaquery {
	v := func(i int) string { return fmt.Sprintf("X%d", i) }
	body := make([]core.LiteralScheme, m)
	for i := 0; i < m; i++ {
		body[i] = core.Pattern(fmt.Sprintf("P%d", i), v(i), v(i+1))
	}
	mq, err := core.NewMetaquery(core.Pattern("R", v(0), v(m)), body...)
	if err != nil {
		panic(err)
	}
	return mq
}

// CycleMQ returns the cyclic metaquery whose body is an m-cycle of binary
// patterns: P0(X0,X1), ..., Pm-1(Xm-1,X0). For m >= 3 its body has
// hypertree width 2.
func CycleMQ(m int) *core.Metaquery {
	v := func(i int) string { return fmt.Sprintf("X%d", i%m) }
	body := make([]core.LiteralScheme, m)
	for i := 0; i < m; i++ {
		body[i] = core.Pattern(fmt.Sprintf("P%d", i), v(i), v(i+1))
	}
	mq, err := core.NewMetaquery(core.Pattern("R", v(0), v(1)), body...)
	if err != nil {
		panic(err)
	}
	return mq
}

// CliqueMQ returns a metaquery whose body is the complete graph on m
// variables (one binary pattern per variable pair); its hypertree width
// grows with m, exercising wide decompositions.
func CliqueMQ(m int) *core.Metaquery {
	v := func(i int) string { return fmt.Sprintf("X%d", i) }
	var body []core.LiteralScheme
	idx := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			body = append(body, core.Pattern(fmt.Sprintf("P%d", idx), v(i), v(j)))
			idx++
		}
	}
	mq, err := core.NewMetaquery(core.Pattern("R", v(0), v(1)), body...)
	if err != nil {
		panic(err)
	}
	return mq
}

// StarMQ returns the semi-acyclic star metaquery
// R(X0) <- P0(X0,X1), P1(X0,X2), ..., Pm-1(X0,Xm).
func StarMQ(m int) *core.Metaquery {
	v := func(i int) string { return fmt.Sprintf("X%d", i) }
	body := make([]core.LiteralScheme, m)
	for i := 0; i < m; i++ {
		body[i] = core.Pattern(fmt.Sprintf("P%d", i), v(0), v(i+1))
	}
	mq, err := core.NewMetaquery(core.Pattern("R", v(0)), body...)
	if err != nil {
		panic(err)
	}
	return mq
}

// WidthWorkload builds a database and rule body of the given hypertree
// width c for the Theorem 4.12 scaling experiment: the body is a chain of
// c-cliques; the database has one binary relation e with `tuples` edges
// over `domain` constants.
//
// Width 1 uses a 2-atom chain; width 2 a triangle; width 3 a 4-clique
// (whose hypertree width is 3 by the known bound hw(K_n clique query) =
// ceil(n/2) for n = 6... for small bodies we simply pick bodies whose
// Decompose width is validated by the tests).
func WidthWorkload(c int, tuples, domain int, seed int64) (*relation.Database, core.Rule) {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase()
	db.MustAddRelation("e", 2)
	for i := 0; i < tuples; i++ {
		db.MustInsertNamed("e",
			fmt.Sprintf("d%d", rng.Intn(domain)),
			fmt.Sprintf("d%d", rng.Intn(domain)))
	}
	v := func(i int) string { return fmt.Sprintf("X%d", i) }
	var body []relation.Atom
	switch c {
	case 1:
		body = []relation.Atom{
			relation.NewAtom("e", v(0), v(1)),
			relation.NewAtom("e", v(1), v(2)),
		}
	case 2:
		body = []relation.Atom{
			relation.NewAtom("e", v(0), v(1)),
			relation.NewAtom("e", v(1), v(2)),
			relation.NewAtom("e", v(2), v(0)),
		}
	default:
		// c >= 3: complete graph on 2c vertices has hypertree width c.
		n := 2 * c
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				body = append(body, relation.NewAtom("e", v(i), v(j)))
			}
		}
	}
	head := relation.NewAtom("e", v(0), v(1))
	return db, core.Rule{Head: head, Body: body}
}
