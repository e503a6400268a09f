package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchTables builds two joinable tables a(X,Y) and b(Y,Z) with rows random
// tuples each over a domain of rows/4 constants, so joins produce output
// without degenerating into a cartesian product.
func benchTables(rows int) (*Table, *Table) {
	rng := rand.New(rand.NewSource(42))
	dom := rows / 4
	if dom < 2 {
		dom = 2
	}
	a := NewTable([]string{"X", "Y"})
	b := NewTable([]string{"Y", "Z"})
	for i := 0; i < rows; i++ {
		a.Add(Tuple{Value(rng.Intn(dom)), Value(rng.Intn(dom))})
		b.Add(Tuple{Value(rng.Intn(dom)), Value(rng.Intn(dom))})
	}
	return a, b
}

// benchDB builds a chain database p(X,Y), q(Y,Z), r(Z,W) for JoinAtoms
// benchmarks.
func benchDB(rows int) (*Database, []Atom) {
	db := NewDatabase()
	rng := rand.New(rand.NewSource(7))
	dom := rows / 4
	if dom < 2 {
		dom = 2
	}
	for _, name := range []string{"p", "q", "r"} {
		rel := db.MustAddRelation(name, 2)
		for i := 0; i < rows; i++ {
			rel.Insert(Tuple{
				db.Dict().Intern(fmt.Sprint(rng.Intn(dom))),
				db.Dict().Intern(fmt.Sprint(rng.Intn(dom))),
			})
		}
	}
	atoms := []Atom{
		NewAtom("p", "X", "Y"),
		NewAtom("q", "Y", "Z"),
		NewAtom("r", "Z", "W"),
	}
	return db, atoms
}

func BenchmarkNaturalJoin(b *testing.B) {
	for _, rows := range []int{256, 1024, 4096} {
		l, r := benchTables(rows)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.NaturalJoin(r)
			}
		})
	}
}

func BenchmarkSemijoin(b *testing.B) {
	for _, rows := range []int{256, 1024, 4096} {
		l, r := benchTables(rows)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Semijoin(r)
			}
		})
	}
}

func BenchmarkTableAdd(b *testing.B) {
	for _, rows := range []int{1024, 8192} {
		rng := rand.New(rand.NewSource(3))
		tuples := make([]Tuple, rows)
		for i := range tuples {
			tuples[i] = Tuple{Value(rng.Intn(rows / 2)), Value(rng.Intn(rows / 2)), Value(rng.Intn(rows / 2))}
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := NewTable([]string{"X", "Y", "Z"})
				for _, tup := range tuples {
					t.Add(tup)
				}
			}
		})
	}
}

func BenchmarkJoinAtomsChain(b *testing.B) {
	for _, rows := range []int{256, 1024} {
		db, atoms := benchDB(rows)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := JoinAtoms(db, atoms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProject(b *testing.B) {
	l, _ := benchTables(4096)
	j := l.NaturalJoin(l.Project([]string{"Y"}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Project([]string{"X"})
	}
}

// headCountShape builds one body table over bodyVars and heads head tables
// over headVars for BenchmarkHeadCounts. Body rows carry a value from the
// dom-value head domain in the shared column on one row in five and a
// unique value otherwise; every head holds headRows rows drawn from the
// same domain.
func headCountShape(bodyVars []string, bodyRows int, headVars []string, heads, headRows, dom int) (*Table, []*Table) {
	rng := rand.New(rand.NewSource(11))
	body := NewTable(bodyVars)
	row := make(Tuple, len(bodyVars))
	for body.Len() < bodyRows {
		for c := range row {
			row[c] = Value(dom + rng.Intn(1<<20))
			if rng.Intn(5) == 0 {
				row[c] = Value(rng.Intn(dom))
			}
		}
		body.Add(row)
	}
	var hs []*Table
	for i := 0; i < heads; i++ {
		h := NewTable(headVars)
		hrow := make(Tuple, len(headVars))
		for h.Len() < headRows {
			for c := range hrow {
				hrow[c] = Value(rng.Intn(dom))
			}
			h.Add(hrow)
		}
		hs = append(hs, h)
	}
	return body, hs
}

// BenchmarkHeadCounts measures the head-counting kernels of findHeads at
// the relation layer: per body, both |h ⋉ b| and |b ⋉ h| for every head.
// two-kernel is the materializing pair (h' = h ⋉ b, then |b ⋉ h'|);
// one-pass is KeyCounts.PairCounts, which indexes the body at most once for
// all its heads. The shapes are a 25,000-row binary body against six
// 97-row unary heads (big data, tiny heads) and a 60-row body against four
// 300-row binary heads (small bodies, heads larger than the body).
func BenchmarkHeadCounts(b *testing.B) {
	bigBody, unaryHeads := headCountShape([]string{"X", "Y"}, 25_000, []string{"Y"}, 6, 97, 97)
	smallBody, binaryHeads := headCountShape([]string{"X", "Y", "Z"}, 60, []string{"X", "Z"}, 4, 300, 40)
	for _, c := range []struct {
		name  string
		body  *Table
		heads []*Table
	}{
		{"body=25000/heads=6x97", bigBody, unaryHeads},
		{"body=60/heads=4x300", smallBody, binaryHeads},
	} {
		b.Run(c.name+"/two-kernel", func(b *testing.B) {
			sc := NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, h := range c.heads {
					hp := h.SemijoinS(c.body, sc)
					bh, _ := c.body.SemijoinCounts(hp, sc)
					benchSink += hp.Len() + bh
					sc.Release(hp)
				}
			}
		})
		b.Run(c.name+"/one-pass", func(b *testing.B) {
			sc := NewScratch()
			var ix KeyCounts
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Reset(sc)
				for _, h := range c.heads {
					hb, bh := ix.PairCounts(h, c.body, sc)
					benchSink += hb + bh
				}
			}
		})
	}
}

// benchSink keeps benchmarked results live.
var benchSink int
