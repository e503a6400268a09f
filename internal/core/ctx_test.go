package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

func ctxTestDB(t testing.TB) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	db.MustInsertNamed("p", "a", "b")
	db.MustInsertNamed("q", "b", "c")
	db.MustInsertNamed("r", "a", "c")
	return db
}

func TestForEachInstantiationContextCancelled(t *testing.T) {
	db := ctxTestDB(t)
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := ForEachInstantiationContext(ctx, db, mq, Type0, func(*Instantiation) (bool, error) {
		calls++
		return true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("callback ran %d times under a cancelled context", calls)
	}
}

func TestNaiveAnswersContextCancelled(t *testing.T) {
	db := ctxTestDB(t)
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NaiveAnswersContext(ctx, db, mq, Type1, Thresholds{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNaiveAnswersContextExpiredDeadline(t *testing.T) {
	db := ctxTestDB(t)
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := NaiveAnswersContext(ctx, db, mq, Type1, Thresholds{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestDecideContextCancelled(t *testing.T) {
	db := ctxTestDB(t)
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := DecideContext(ctx, db, mq, Cnf, rat.Zero, Type0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCandidateIndexMatchesCandidates(t *testing.T) {
	db := ctxTestDB(t)
	db.MustInsertNamed("wide", "a", "b", "c") // arity-3 relation for type-2
	ix := NewCandidateIndex(db)
	mq := MustParse("R(X,Z) <- P(X,Y), Q(Y,Z)")
	for _, typ := range []InstType{Type0, Type1, Type2} {
		for pi, l := range mq.RelationPatterns() {
			want := Candidates(db, l, typ, pi)
			for i := 0; i < 2; i++ { // second call exercises the memo
				got := ix.Candidates(l, typ, pi)
				if len(got) != len(want) {
					t.Fatalf("%s pattern %d: %d candidates, want %d", typ, pi, len(got), len(want))
				}
				for j := range got {
					if got[j].String() != want[j].String() {
						t.Fatalf("%s pattern %d candidate %d: %s, want %s",
							typ, pi, j, got[j], want[j])
					}
				}
			}
		}
	}
}
