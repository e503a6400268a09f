package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeBigCSV writes a database whose type-2 search space is far too large
// to exhaust in a few milliseconds.
func writeBigCSV(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for r := 0; r < 10; r++ {
		rows := ""
		for i := 0; i < 20; i++ {
			rows += fmt.Sprintf("a%d,b%d,c%d\n", (i*7+r)%9, (i*5+r)%9, (i*3+r)%9)
		}
		name := filepath.Join(dir, fmt.Sprintf("r%d.csv", r))
		if err := os.WriteFile(name, []byte(rows), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunTimedDeadline(t *testing.T) {
	dir := writeBigCSV(t)
	err := runTimed(dir, "R(X,W) <- P(X,Y), Q(Y,Z), S(Z,W)", 2, "", "", "", false, 0, 0, false, 20*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunTimedGenerousDeadlineSucceeds(t *testing.T) {
	dir := writeTelecomCSV(t)
	if err := runTimed(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "1/2", "", "", false, 0, 0, true, time.Minute); err != nil {
		t.Fatalf("run with ample timeout failed: %v", err)
	}
}

// An -explain run cut off by its deadline must surface the deadline error
// (so main maps it to the timeout exit status) after printing the plan
// report and partial answers, exactly like the plain enumeration path.
func TestRunExplainDeadline(t *testing.T) {
	dir := writeBigCSV(t)
	err := runExplain(dir, "R(X,W) <- P(X,Y), Q(Y,Z), S(Z,W)", 2, "", "", "", 0, 0, false, 20*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("explain: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunTimedNaiveDeadline(t *testing.T) {
	dir := writeBigCSV(t)
	err := runTimed(dir, "R(X,W) <- P(X,Y), Q(Y,Z), S(Z,W)", 2, "", "", "", true, 0, 0, false, 20*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("naive: err = %v, want context.DeadlineExceeded", err)
	}
}
