package experiments

import (
	"context"
	"fmt"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/hypergraph"
	"github.com/mqgo/metaquery/internal/hypertree"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
	"github.com/mqgo/metaquery/internal/workload"
)

// runE1 reproduces Figure 1 and the Section 2.1 worked example: on DB1 the
// metaquery (4) admits 27 type-0 and 216 type-1 instantiations, and the
// rule UsPT(X,Z) <- UsCa(X,Y), CaTe(Y,Z) scores sup 1, cnf 5/7, cvr 1.
func runE1(ctx context.Context, _ bool) (*Result, error) {
	res := &Result{ID: "E1", Title: "Figure 1 / §2.1: DB1 and metaquery (4)",
		Header: []string{"type", "instantiations", "paper rule found", "sup", "cnf", "cvr"}}
	db := workload.DB1()
	mq := workload.MQ4()
	wantCounts := map[core.InstType]int{core.Type0: 27, core.Type1: 216}
	pass := true
	for _, typ := range []core.InstType{core.Type0, core.Type1} {
		n, err := core.CountInstantiations(db, mq, typ)
		if err != nil {
			return nil, err
		}
		answers, _, err := engine.NewEngine(db).FindRulesStats(ctx, mq, engine.Options{Type: typ})
		if err != nil {
			return nil, err
		}
		var hit *core.Answer
		for i := range answers {
			if answers[i].Rule.String() == "UsPT(X,Z) <- UsCa(X,Y), CaTe(Y,Z)" {
				hit = &answers[i]
			}
		}
		if hit == nil {
			pass = false
			res.AddRow(typ.String(), fmt.Sprint(n), "NO", "-", "-", "-")
			continue
		}
		ok := n == wantCounts[typ] &&
			hit.Sup.Equal(rat.One) && hit.Cnf.Equal(rat.New(5, 7)) && hit.Cvr.Equal(rat.One)
		pass = pass && ok
		res.AddRow(typ.String(), fmt.Sprint(n), "yes", hit.Sup.String(), hit.Cnf.String(), hit.Cvr.String())
	}
	res.Notef("paper: sup=1, cnf=5/7, cvr=1 for UsPT(X,Z) <- UsCa(X,Y), CaTe(Y,Z)")
	res.Pass = pass
	return res, nil
}

// runE2 reproduces the Figure 2 type-2 example: with the ternary UsPT the
// metaquery (4) instantiates to UsPT(X,Z,T) <- UsCa(Y,X), CaTe(Y,Z).
func runE2(ctx context.Context, _ bool) (*Result, error) {
	res := &Result{ID: "E2", Title: "Figure 2 / §2.1: type-2 instantiation with padded head",
		Header: []string{"rule", "sup", "cnf", "cvr"}}
	db := workload.DB1Extended()
	mq := workload.MQ4()
	answers, _, err := engine.NewEngine(db).FindRulesStats(ctx, mq, engine.Options{Type: core.Type2})
	if err != nil {
		return nil, err
	}
	found := false
	for _, a := range answers {
		if a.Rule.Head.Pred == "UsPT" && len(a.Rule.Head.Terms) == 3 &&
			a.Rule.Head.Terms[0].Var == "X" && a.Rule.Head.Terms[1].Var == "Z" &&
			a.Rule.Body[0].String() == "UsCa(Y,X)" && a.Rule.Body[1].String() == "CaTe(Y,Z)" {
			found = true
			res.AddRow(a.Rule.String(), a.Sup.String(), a.Cnf.String(), a.Cvr.String())
		}
	}
	res.Notef("total type-2 answers with no thresholds: %d", len(answers))
	res.Notef("the paper's example is syntactic: joining UsCa(Y,X) with CaTe(Y,Z) on Y equates users with carriers, so the indices are legitimately 0")
	res.Pass = found
	return res, nil
}

// runE3 reproduces the §2.2 cover example: the type-2 instantiation
// UsCa(X,Z) <- UsPT(X,H) of I(X) <- O(X) scores cover 1.
func runE3(ctx context.Context, _ bool) (*Result, error) {
	res := &Result{ID: "E3", Title: "§2.2: cover example I(X) <- O(X)",
		Header: []string{"rule", "cvr"}}
	db := workload.DB1()
	mq := core.MustParse("I(X) <- O(X)")
	answers, _, err := engine.NewEngine(db).FindRulesStats(ctx, mq, engine.Options{
		Type:       core.Type2,
		Thresholds: core.SingleIndex(core.Cvr, rat.New(99, 100)),
	})
	if err != nil {
		return nil, err
	}
	pass := false
	for _, a := range answers {
		if a.Rule.Head.Pred == "UsCa" && a.Rule.Body[0].Pred == "UsPT" &&
			a.Rule.Head.Terms[0].Var == "X" && a.Rule.Body[0].Terms[0].Var == "X" {
			if a.Cvr.Equal(rat.One) {
				pass = true
			}
			res.AddRow(a.Rule.String(), a.Cvr.String())
		}
	}
	res.Notef("paper: UsCa(X,Z) <- UsPt(X,H) scores cover 1")
	res.Pass = pass
	return res, nil
}

// runE15 reproduces Figure 3 / Examples 4.3 and 4.5: the join tree of
// {P(A,B), Q(B,C), R(C,D)} and its two-half full reducer, verified to
// reduce a concrete database to the projections of the full join.
func runE15(ctx context.Context, _ bool) (*Result, error) {
	res := &Result{ID: "E15", Title: "Figure 3 / Examples 4.3, 4.5: join tree and full reducer",
		Header: []string{"half", "step"}}
	h := hypergraph.New([]string{"A", "B"}, []string{"B", "C"}, []string{"C", "D"})
	names := []string{"p(A,B)", "q(B,C)", "r(C,D)"}
	first, second, ok := hypergraph.FullReducer(h)
	if !ok {
		return nil, fmt.Errorf("E15: no full reducer for a semi-acyclic set")
	}
	for _, s := range first {
		res.AddRow("first", fmt.Sprintf("%s := %s ⋉ %s", names[s.Target], names[s.Target], names[s.Source]))
	}
	for _, s := range second {
		res.AddRow("second", fmt.Sprintf("%s := %s ⋉ %s", names[s.Target], names[s.Target], names[s.Source]))
	}

	// Verify full reduction on a concrete database: after both halves each
	// relation equals the projection of the full join onto its attributes.
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a1", "b1")
	db.MustInsertNamed("p", "a2", "b2")
	db.MustInsertNamed("p", "a3", "b9") // dangling
	db.MustInsertNamed("q", "b1", "c1")
	db.MustInsertNamed("q", "b2", "c2")
	db.MustInsertNamed("q", "b7", "c7") // dangling
	db.MustInsertNamed("r", "c1", "d1")
	db.MustInsertNamed("r", "c8", "d8") // dangling
	atoms := []relation.Atom{
		relation.NewAtom("p", "A", "B"),
		relation.NewAtom("q", "B", "C"),
		relation.NewAtom("r", "C", "D"),
	}
	tables := make([]*relation.Table, len(atoms))
	for i, a := range atoms {
		t, err := relation.FromAtom(db, a)
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	for _, s := range append(append([]hypergraph.SemijoinStep{}, first...), second...) {
		tables[s.Target] = tables[s.Target].Semijoin(tables[s.Source])
	}
	full, err := relation.JoinAtoms(db, atoms)
	if err != nil {
		return nil, err
	}
	pass := true
	for i, a := range atoms {
		want := full.Project(a.Vars())
		if !tables[i].EqualSet(want) {
			pass = false
			res.Notef("relation %s not fully reduced", names[i])
		}
	}
	res.Notef("after both halves, every relation equals the projection of the full join: %v", pass)
	res.Pass = pass && len(first) == 2 && len(second) == 2
	return res, nil
}

// runE16 reproduces Examples 4.8/4.10: the hypertree decomposition of
// Qex = {P(A,B), Q(B,C), R(C,D), S(B,D)} has width exactly 2.
func runE16(ctx context.Context, _ bool) (*Result, error) {
	res := &Result{ID: "E16", Title: "Examples 4.8/4.10: hypertree decomposition of Qex",
		Header: []string{"node", "chi", "lambda"}}
	names := []string{"P(A,B)", "Q(B,C)", "R(C,D)", "S(B,D)"}
	atoms := []hypertree.AtomSchema{
		{ID: 0, Vars: []string{"A", "B"}},
		{ID: 1, Vars: []string{"B", "C"}},
		{ID: 2, Vars: []string{"C", "D"}},
		{ID: 3, Vars: []string{"B", "D"}},
	}
	d := hypertree.Decompose(atoms)
	if err := hypertree.Validate(atoms, d); err != nil {
		return nil, err
	}
	for _, n := range d.Nodes() {
		lam := make([]string, len(n.Lambda))
		for i, id := range n.Lambda {
			lam[i] = names[id]
		}
		res.AddRow(fmt.Sprintf("p%d", n.ID+1),
			"{"+joinStrings(n.Chi, ",")+"}", "{"+joinStrings(lam, ",")+"}")
	}
	res.Notef("computed width = %d (paper: hypertree-width of Qex is 2)", d.Width)
	res.Pass = d.Width == 2
	return res, nil
}

func joinStrings(ss []string, sep string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += sep
		}
		out += s
	}
	return out
}
