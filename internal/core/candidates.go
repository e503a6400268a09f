package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/mqgo/metaquery/internal/relation"
)

// PatternIndex returns the index of pattern l in rep(MQ), used to key
// type-2 fresh padding variables. It returns -1 if l is not a pattern of mq.
func PatternIndex(mq *Metaquery, l LiteralScheme) int {
	for i, p := range mq.RelationPatterns() {
		if p.Key() == l.Key() {
			return i
		}
	}
	return -1
}

// ValidateForType checks the preconditions of the chosen instantiation
// semantics: type-0 and type-1 require pure metaqueries (Definitions
// 2.2/2.3); type-2 applies to any metaquery. It also checks that every
// ordinary atom of the metaquery names an existing database relation with
// the right arity, since σ never rewrites ordinary atoms.
func ValidateForType(db *relation.Database, mq *Metaquery, typ InstType) error {
	if typ != Type2 && !mq.IsPure() {
		return fmt.Errorf("core: %s instantiations require a pure metaquery", typ)
	}
	for _, l := range mq.LiteralSchemes() {
		if l.PredVar {
			continue
		}
		r := db.Relation(l.Pred)
		if r == nil {
			return fmt.Errorf("core: metaquery atom %s names unknown relation %q", l, l.Pred)
		}
		if r.Arity() != len(l.Args) {
			return fmt.Errorf("core: metaquery atom %s has arity %d but relation %s has arity %d",
				l, len(l.Args), l.Pred, r.Arity())
		}
	}
	return nil
}

// Candidates enumerates the atoms that relation pattern l may be mapped to
// by a type-typ instantiation over db, in deterministic order. patternIdx
// keys the fresh variables used for type-2 padding and must be the
// pattern's index in rep(MQ).
//
// The returned atoms are deduplicated: patterns with repeated variables can
// make distinct permutations or injections coincide.
func Candidates(db *relation.Database, l LiteralScheme, typ InstType, patternIdx int) []relation.Atom {
	if !l.PredVar {
		return []relation.Atom{l.Atom()}
	}
	return candidatesOver(db, l, typ, patternIdx, db.RelationNames())
}

// candidatesOver generates the candidate atoms of pattern l restricted to
// the given relation names. It is the shared generator behind Candidates
// (all relations) and CandidateIndex.Candidates (arity-bucketed names).
func candidatesOver(db *relation.Database, l LiteralScheme, typ InstType, patternIdx int, names []string) []relation.Atom {
	// Each atom is rendered once: its text keys both the dedup map and the
	// sort.
	var keys []string
	seen := make(map[string]relation.Atom)
	add := func(a relation.Atom) {
		k := a.String()
		if _, dup := seen[k]; !dup {
			seen[k] = a
			keys = append(keys, k)
		}
	}
	k := len(l.Args)
	for _, name := range names {
		rel := db.Relation(name)
		switch typ {
		case Type0:
			if rel.Arity() == k {
				add(atomOver(name, l.Args))
			}
		case Type1:
			if rel.Arity() == k {
				forEachPermutation(l.Args, func(perm []string) {
					add(atomOver(name, perm))
				})
			}
		case Type2:
			kp := rel.Arity()
			if kp < k {
				continue
			}
			// Enumerate injections ι: pattern positions -> atom positions.
			forEachInjection(k, kp, func(inj []int) {
				args := make([]string, kp)
				used := make([]bool, kp)
				for j, p := range inj {
					args[p] = l.Args[j]
					used[p] = true
				}
				for p := 0; p < kp; p++ {
					if !used[p] {
						args[p] = freshVar(patternIdx, p)
					}
				}
				add(atomOver(name, args))
			})
		}
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Strings(keys)
	out := make([]relation.Atom, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// forEachPermutation calls f with every ordering of args (including
// duplicates of equal orderings; callers deduplicate results).
func forEachPermutation(args []string, f func([]string)) {
	n := len(args)
	if n == 0 {
		f(nil)
		return
	}
	perm := append([]string(nil), args...)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			f(perm)
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
}

// forEachInjection calls f with every injective map from {0..k-1} into
// {0..kp-1}, represented as a slice inj with inj[j] = image of j.
func forEachInjection(k, kp int, f func([]int)) {
	inj := make([]int, k)
	used := make([]bool, kp)
	var rec func(j int)
	rec = func(j int) {
		if j == k {
			f(inj)
			return
		}
		for p := 0; p < kp; p++ {
			if used[p] {
				continue
			}
			used[p] = true
			inj[j] = p
			rec(j + 1)
			used[p] = false
		}
	}
	rec(0)
}

// CountInstantiations returns the number of distinct type-typ
// instantiations of mq over db (the instantiation search space analyzed at
// the end of Section 4). It enumerates with early aggregation, so it is
// intended for instrumentation, not hot paths.
func CountInstantiations(db *relation.Database, mq *Metaquery, typ InstType) (int, error) {
	n := 0
	err := ForEachInstantiation(db, mq, typ, func(*Instantiation) (bool, error) {
		n++
		return true, nil
	})
	return n, err
}

// ForEachInstantiation enumerates every type-typ instantiation σ of mq over
// db, calling f with each. Enumeration stops early when f returns false.
// The *Instantiation passed to f is reused; clone it to retain it.
func ForEachInstantiation(db *relation.Database, mq *Metaquery, typ InstType, f func(*Instantiation) (bool, error)) error {
	return ForEachInstantiationContext(context.Background(), db, mq, typ, f)
}

// ForEachInstantiationContext is ForEachInstantiation with cancellation:
// ctx is checked before every candidate extension, and enumeration stops
// with ctx.Err() as soon as the context is cancelled or its deadline
// passes.
func ForEachInstantiationContext(ctx context.Context, db *relation.Database, mq *Metaquery, typ InstType, f func(*Instantiation) (bool, error)) error {
	if err := ValidateForType(db, mq, typ); err != nil {
		return err
	}
	patterns := mq.RelationPatterns()
	sigma := NewInstantiation()
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if i == len(patterns) {
			return f(sigma)
		}
		l := patterns[i]
		for _, a := range Candidates(db, l, typ, i) {
			// Enforce functionality of σ' incrementally.
			if rel, ok := sigma.RelationOf(l.Pred); ok && rel != a.Pred {
				continue
			}
			if err := sigma.Assign(l, a); err != nil {
				return false, err
			}
			cont, err := rec(i + 1)
			sigma.Unassign(l)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0)
	return err
}
