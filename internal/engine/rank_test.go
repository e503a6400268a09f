package engine

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

func mkAnswer(rule string, sup, cnf, cvr rat.Rat) core.Answer {
	return core.Answer{
		Rule: core.Rule{Head: relation.NewAtom(rule, "X")},
		Sup:  sup, Cnf: cnf, Cvr: cvr,
	}
}

func TestRankAnswersByEachIndex(t *testing.T) {
	answers := []core.Answer{
		mkAnswer("a", rat.New(1, 2), rat.New(3, 4), rat.New(1, 4)),
		mkAnswer("b", rat.New(3, 4), rat.New(1, 2), rat.New(1, 2)),
		mkAnswer("c", rat.New(1, 4), rat.One, rat.One),
	}
	bySup := TopAnswers(answers, core.Sup, 0)
	if bySup[0].Rule.Head.Pred != "b" || bySup[2].Rule.Head.Pred != "c" {
		t.Errorf("sup ranking wrong: %v %v %v", bySup[0].Rule, bySup[1].Rule, bySup[2].Rule)
	}
	byCnf := TopAnswers(answers, core.Cnf, 0)
	if byCnf[0].Rule.Head.Pred != "c" {
		t.Errorf("cnf ranking wrong: first = %v", byCnf[0].Rule)
	}
	byCvr := TopAnswers(answers, core.Cvr, 0)
	if byCvr[0].Rule.Head.Pred != "c" || byCvr[2].Rule.Head.Pred != "a" {
		t.Errorf("cvr ranking wrong")
	}
}

func TestRankAnswersTieBreaking(t *testing.T) {
	answers := []core.Answer{
		mkAnswer("b", rat.One, rat.New(1, 2), rat.Zero),
		mkAnswer("a", rat.One, rat.New(1, 2), rat.Zero),
		mkAnswer("c", rat.One, rat.New(3, 4), rat.Zero),
	}
	ranked := TopAnswers(answers, core.Sup, 0)
	// Equal sup: cnf breaks the tie; equal everything: rule text.
	if ranked[0].Rule.Head.Pred != "c" || ranked[1].Rule.Head.Pred != "a" || ranked[2].Rule.Head.Pred != "b" {
		t.Errorf("tie breaking wrong: %v %v %v", ranked[0].Rule, ranked[1].Rule, ranked[2].Rule)
	}
}

func TestTopAnswersK(t *testing.T) {
	answers := []core.Answer{
		mkAnswer("a", rat.New(1, 4), rat.Zero, rat.Zero),
		mkAnswer("b", rat.New(3, 4), rat.Zero, rat.Zero),
		mkAnswer("c", rat.New(1, 2), rat.Zero, rat.Zero),
	}
	top2 := TopAnswers(answers, core.Sup, 2)
	if len(top2) != 2 || top2[0].Rule.Head.Pred != "b" || top2[1].Rule.Head.Pred != "c" {
		t.Errorf("top-2 wrong: %v", top2)
	}
	// k beyond length returns all; input slice untouched.
	all := TopAnswers(answers, core.Sup, 99)
	if len(all) != 3 {
		t.Errorf("top-99 = %d answers", len(all))
	}
	if answers[0].Rule.Head.Pred != "a" {
		t.Error("TopAnswers mutated its input")
	}
}

func TestTopAnswersOnRealRun(t *testing.T) {
	db := db1(t)
	mq := core.MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	answers, _, err := NewEngine(db).FindRulesStats(context.Background(), mq, Options{Type: core.Type1})
	if err != nil {
		t.Fatal(err)
	}
	top := TopAnswers(answers, core.Cnf, 3)
	if len(top) != 3 {
		t.Fatalf("top-3 = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Cnf.Greater(top[i-1].Cnf) {
			t.Error("ranking not descending")
		}
	}
}

// TestRankAnswersMatchesRenderingComparator pins RankAnswers to the
// permutation of the comparator it replaced, which rendered both rules
// whenever the index triples tied. Answers are drawn from a tiny
// vocabulary so equal triples and equal rule texts are common; each
// carries its own *Instantiation, which identifies it across sorts.
func TestRankAnswersMatchesRenderingComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := []rat.Rat{rat.Zero, rat.New(1, 2), rat.One}
	atom := func() relation.Atom {
		return relation.NewAtom([]string{"p", "q"}[rng.Intn(2)], []string{"X", "Y"}[rng.Intn(2)])
	}
	for _, n := range []int{0, 1, 2, 17, 2000} {
		for _, by := range []core.Index{core.Sup, core.Cnf, core.Cvr} {
			as := make([]core.Answer, n)
			for i := range as {
				body := make([]relation.Atom, rng.Intn(3))
				for j := range body {
					body[j] = atom()
				}
				as[i] = core.Answer{
					Inst: core.NewInstantiation(),
					Rule: core.Rule{Head: atom(), Body: body},
					Sup:  idx[rng.Intn(3)], Cnf: idx[rng.Intn(3)], Cvr: idx[rng.Intn(3)],
				}
			}
			want := append([]core.Answer(nil), as...)
			key := func(a core.Answer) [3]rat.Rat {
				switch by {
				case core.Cnf:
					return [3]rat.Rat{a.Cnf, a.Sup, a.Cvr}
				case core.Cvr:
					return [3]rat.Rat{a.Cvr, a.Sup, a.Cnf}
				default:
					return [3]rat.Rat{a.Sup, a.Cnf, a.Cvr}
				}
			}
			sort.SliceStable(want, func(i, j int) bool {
				ki, kj := key(want[i]), key(want[j])
				for x := 0; x < 3; x++ {
					if c := ki[x].Cmp(kj[x]); c != 0 {
						return c > 0
					}
				}
				return want[i].Rule.String() < want[j].Rule.String()
			})
			RankAnswers(as, by)
			for i := range as {
				if as[i].Inst != want[i].Inst {
					t.Fatalf("n=%d by %s: position %d holds %q, reference holds %q", n, by, i, as[i].Rule, want[i].Rule)
				}
			}
		}
	}
}
