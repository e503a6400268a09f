package engine

import (
	"sort"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/rat"
)

// RankAnswers orders answers by the given index, descending, breaking ties
// by the other two indices (sup, cnf, cvr order) and finally by rule text
// so the ranking is total and deterministic. It sorts in place and returns
// the slice for chaining.
//
// The paper motivates plausibility indices as a way "to avoid presenting
// negligible information to the user"; ranking plus TopAnswers is the
// presentation half of that contract.
func RankAnswers(answers []core.Answer, by core.Index) []core.Answer {
	if len(answers) < 2 {
		return answers
	}
	sort.Stable(byIndex{core.RenderAnswers(answers), by})
	return answers
}

// byIndex ranks answers by index, falling back to their rule texts, which
// are rendered once up front instead of per comparison.
type byIndex struct {
	core.RenderedAnswers
	by core.Index
}

func (s byIndex) key(i int) [3]rat.Rat {
	a := &s.Answers[i]
	switch s.by {
	case core.Cnf:
		return [3]rat.Rat{a.Cnf, a.Sup, a.Cvr}
	case core.Cvr:
		return [3]rat.Rat{a.Cvr, a.Sup, a.Cnf}
	default:
		return [3]rat.Rat{a.Sup, a.Cnf, a.Cvr}
	}
}

func (s byIndex) Less(i, j int) bool {
	ki, kj := s.key(i), s.key(j)
	for x := 0; x < 3; x++ {
		if c := ki[x].Cmp(kj[x]); c != 0 {
			return c > 0
		}
	}
	return s.CompareText(i, j) < 0
}

// TopAnswers returns the k highest-ranked answers by the given index
// (all answers when k <= 0 or k exceeds the slice). The input is not
// modified.
func TopAnswers(answers []core.Answer, by core.Index, k int) []core.Answer {
	ranked := append([]core.Answer(nil), answers...)
	RankAnswers(ranked, by)
	if k <= 0 || k > len(ranked) {
		return ranked
	}
	return ranked[:k]
}
