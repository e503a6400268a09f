package core

import (
	"fmt"

	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// Fraction computes R ↑ S of Definition 2.6 for atom sets R and S over db:
//
//	R ↑ S = |π_att(R)(J(R) ⋈ J(S))| / |J(R)|
//
// defined as 0 whenever the numerator is 0. Because att(R) covers every
// column of J(R), the projection of the join onto att(R) equals the
// semijoin J(R) ⋉ J(S), which is how it is computed.
//
// The free functions evaluate through a transient Evaluator; callers
// computing indices for many rules over one database should hold a
// NewEvaluator and use its methods so atom tables are reused.
func Fraction(db *relation.Database, r, s []relation.Atom) (rat.Rat, error) {
	return NewEvaluator(db).Fraction(r, s)
}

// Confidence computes cnf(r) = b(r) ↑ h(r): the fraction of body-satisfying
// assignments that also satisfy the head (Definition 2.7).
func Confidence(db *relation.Database, r Rule) (rat.Rat, error) {
	return NewEvaluator(db).Confidence(r)
}

// Cover computes cvr(r) = h(r) ↑ b(r): the fraction of head tuples implied
// by the body (Definition 2.7).
func Cover(db *relation.Database, r Rule) (rat.Rat, error) {
	return NewEvaluator(db).Cover(r)
}

// Support computes sup(r) = max_{a ∈ b(r)} ({a} ↑ b(r)): the largest
// fraction, over the body relations, of tuples participating in the body
// join (Definition 2.7).
func Support(db *relation.Database, r Rule) (rat.Rat, error) {
	return NewEvaluator(db).Support(r)
}

// Index identifies one of the paper's plausibility indices; the set
// I = {cnf, cvr, sup}.
type Index int

const (
	// Sup is the support index.
	Sup Index = iota
	// Cnf is the confidence index.
	Cnf
	// Cvr is the cover index.
	Cvr
)

// AllIndices lists the members of I in a fixed order.
var AllIndices = []Index{Sup, Cnf, Cvr}

// String returns the paper's abbreviation for the index.
func (ix Index) String() string {
	switch ix {
	case Sup:
		return "sup"
	case Cnf:
		return "cnf"
	case Cvr:
		return "cvr"
	default:
		return fmt.Sprintf("index-%d", int(ix))
	}
}

// Compute evaluates the index on rule r over db through a transient
// Evaluator; hot loops should hold one Evaluator and use ComputeEval.
func (ix Index) Compute(db *relation.Database, r Rule) (rat.Rat, error) {
	return ix.ComputeEval(NewEvaluator(db), r)
}

// ComputeEval evaluates the index on rule r through ev's caches.
func (ix Index) ComputeEval(ev *Evaluator, r Rule) (rat.Rat, error) {
	switch ix {
	case Sup:
		return ev.Support(r)
	case Cnf:
		return ev.Confidence(r)
	case Cvr:
		return ev.Cover(r)
	default:
		return rat.Zero, fmt.Errorf("core: unknown index %d", int(ix))
	}
}

// CertifyingSet returns the certifying set S_I of Proposition 3.20 for the
// index: the atom set whose satisfiability (existence of a satisfied ground
// instance) is equivalent to I(r) > 0. For cover and confidence this is all
// atoms of the rule; for support it is the body atoms.
func CertifyingSet(ix Index, r Rule) []relation.Atom {
	switch ix {
	case Sup:
		return r.BodyAtoms()
	default:
		return r.AllAtoms()
	}
}
