package core

import (
	"bytes"
	"context"
	"sort"

	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// Answer is one rule in the answer to a metaquery, together with its
// plausibility indices.
type Answer struct {
	Inst *Instantiation
	Rule Rule
	Sup  rat.Rat
	Cnf  rat.Rat
	Cvr  rat.Rat
}

// Thresholds carries the user-provided admissibility thresholds for the
// three indices; all comparisons are strict (index > threshold), matching
// the decision problems of Section 3.2. The zero value (all thresholds 0)
// requires every index to be positive. Use Unconstrained for a single-index
// query.
type Thresholds struct {
	Sup rat.Rat
	Cnf rat.Rat
	Cvr rat.Rat

	// Check*, when false, disable the corresponding threshold entirely
	// (the index is still computed and reported).
	CheckSup bool
	CheckCnf bool
	CheckCvr bool
}

// AllAbove builds thresholds requiring sup > ks, cnf > kc and cvr > kv.
func AllAbove(ks, kc, kv rat.Rat) Thresholds {
	return Thresholds{Sup: ks, Cnf: kc, Cvr: kv, CheckSup: true, CheckCnf: true, CheckCvr: true}
}

// SingleIndex builds thresholds constraining only the given index to be > k.
func SingleIndex(ix Index, k rat.Rat) Thresholds {
	var t Thresholds
	switch ix {
	case Sup:
		t.Sup, t.CheckSup = k, true
	case Cnf:
		t.Cnf, t.CheckCnf = k, true
	case Cvr:
		t.Cvr, t.CheckCvr = k, true
	}
	return t
}

// Admits reports whether an answer with the given index values passes the
// thresholds.
func (t Thresholds) Admits(sup, cnf, cvr rat.Rat) bool {
	if t.CheckSup && !sup.Greater(t.Sup) {
		return false
	}
	if t.CheckCnf && !cnf.Greater(t.Cnf) {
		return false
	}
	if t.CheckCvr && !cvr.Greater(t.Cvr) {
		return false
	}
	return true
}

// NaiveAnswers enumerates every type-typ instantiation of mq over db,
// computes all three indices by direct materialization of the relational
// algebra definitions, and returns the answers passing the thresholds,
// sorted by rule text. It is the reference implementation against which the
// findRules engine is differentially tested.
func NaiveAnswers(db *relation.Database, mq *Metaquery, typ InstType, th Thresholds) ([]Answer, error) {
	return NaiveAnswersContext(context.Background(), db, mq, typ, th)
}

// NaiveAnswersContext is NaiveAnswers with cancellation: enumeration stops
// with ctx.Err() as soon as ctx is cancelled or its deadline passes.
func NaiveAnswersContext(ctx context.Context, db *relation.Database, mq *Metaquery, typ InstType, th Thresholds) ([]Answer, error) {
	ev := NewEvaluator(db)
	var out []Answer
	err := ForEachInstantiationContext(ctx, db, mq, typ, func(sigma *Instantiation) (bool, error) {
		rule, err := sigma.Apply(mq)
		if err != nil {
			return false, err
		}
		sup, cnf, cvr, err := ev.Indices(rule)
		if err != nil {
			return false, err
		}
		if th.Admits(sup, cnf, cvr) {
			out = append(out, Answer{Inst: sigma.Clone(), Rule: rule, Sup: sup, Cnf: cnf, Cvr: cvr})
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	SortAnswers(out)
	return out, nil
}

// SortAnswers orders answers deterministically by rule text. Each rule is
// rendered once (RenderAnswers), and sort.Sort runs the same pdqsort as
// sort.Slice, so the permutation, ties included, is the one a comparator
// rendering both rules on every comparison produces.
func SortAnswers(as []Answer) {
	if len(as) < 2 {
		return
	}
	sort.Sort(byRuleText{RenderAnswers(as)})
}

// byRuleText sorts answers by their rendered rule text.
type byRuleText struct{ RenderedAnswers }

func (s byRuleText) Less(i, j int) bool { return s.CompareText(i, j) < 0 }

// RenderedAnswers pairs a slice of answers with the text of each rule,
// rendered once into one shared buffer, so comparators compare text
// without rendering it again. Len and Swap keep answers and texts in
// step: a sort.Interface over answers embeds it and adds only Less.
type RenderedAnswers struct {
	Answers []Answer
	buf     []byte
	spans   [][2]int // answer i's text is buf[spans[i][0]:spans[i][1]]
}

// RenderAnswers renders the rule of every answer of as once.
func RenderAnswers(as []Answer) RenderedAnswers {
	r := RenderedAnswers{Answers: as, buf: make([]byte, 0, 64*len(as)), spans: make([][2]int, len(as))}
	for i := range as {
		lo := len(r.buf)
		r.buf = as[i].Rule.AppendTo(r.buf)
		r.spans[i] = [2]int{lo, len(r.buf)}
	}
	return r
}

func (r RenderedAnswers) Len() int { return len(r.Answers) }

func (r RenderedAnswers) Swap(i, j int) {
	r.Answers[i], r.Answers[j] = r.Answers[j], r.Answers[i]
	r.spans[i], r.spans[j] = r.spans[j], r.spans[i]
}

// CompareText compares the rule texts of answers i and j as
// strings.Compare would.
func (r RenderedAnswers) CompareText(i, j int) int {
	a, b := r.spans[i], r.spans[j]
	return bytes.Compare(r.buf[a[0]:a[1]], r.buf[b[0]:b[1]])
}

// Decide solves the decision problem ⟨DB, MQ, I, k, T⟩ of Section 3.2: is
// there a type-T instantiation σ with I(σ(MQ)) > k? It returns the witness
// instantiation when the answer is yes. Enumeration stops at the first
// witness.
func Decide(db *relation.Database, mq *Metaquery, ix Index, k rat.Rat, typ InstType) (bool, *Instantiation, error) {
	return DecideContext(context.Background(), db, mq, ix, k, typ)
}

// DecideContext is Decide with cancellation: enumeration stops with
// ctx.Err() as soon as ctx is cancelled or its deadline passes.
func DecideContext(ctx context.Context, db *relation.Database, mq *Metaquery, ix Index, k rat.Rat, typ InstType) (bool, *Instantiation, error) {
	ev := NewEvaluator(db)
	var witness *Instantiation
	err := ForEachInstantiationContext(ctx, db, mq, typ, func(sigma *Instantiation) (bool, error) {
		rule, err := sigma.Apply(mq)
		if err != nil {
			return false, err
		}
		yes, err := ev.IndexExceeds(ix, rule, k)
		if err != nil {
			return false, err
		}
		if yes {
			witness = sigma.Clone()
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return false, nil, err
	}
	return witness != nil, witness, nil
}
