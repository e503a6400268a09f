package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mqgo/metaquery"
)

// writeTelecomCSV writes a small CSV database for CLI tests.
func writeTelecomCSV(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"citizen.csv":  "john,italy\nmaria,italy\n",
		"language.csv": "italy,italian\n",
		"speaks.csv":   "john,italian\nmaria,italian\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunBasic(t *testing.T) {
	dir := writeTelecomCSV(t)
	if err := run(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "1/2", "0.9", "", false, 0, false); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunNaiveEngine(t *testing.T) {
	dir := writeTelecomCSV(t)
	if err := run(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 1, "", "1/2", "", true, 0, false); err != nil {
		t.Fatalf("naive run failed: %v", err)
	}
}

func TestRunWithStatsAndLimit(t *testing.T) {
	dir := writeTelecomCSV(t)
	if err := run(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 2, "0", "", "0", false, 1, true); err != nil {
		t.Fatalf("stats/limit run failed: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	dir := writeTelecomCSV(t)
	cases := []struct {
		name string
		err  func() error
	}{
		{"missing db", func() error { return run("", "R(X) <- P(X)", 0, "", "", "", false, 0, false) }},
		{"missing query", func() error { return run(dir, "", 0, "", "", "", false, 0, false) }},
		{"bad type", func() error { return run(dir, "R(X) <- P(X)", 7, "", "", "", false, 0, false) }},
		{"bad query", func() error { return run(dir, "not a query", 0, "", "", "", false, 0, false) }},
		{"bad threshold", func() error {
			return run(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "x/y", "", "", false, 0, false)
		}},
		{"bad cnf threshold", func() error {
			return run(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "", "-1", "", false, 0, false)
		}},
		{"bad cvr threshold", func() error {
			return run(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "", "", "2/0", false, 0, false)
		}},
		{"missing dir", func() error { return run(dir+"/nope", "R(X) <- P(X)", 0, "", "", "", false, 0, false) }},
	}
	for _, c := range cases {
		if c.err() == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestRunImpureQueryType0Fails(t *testing.T) {
	dir := writeTelecomCSV(t)
	// Impure metaquery under type-0 must surface the core validation error.
	if err := run(dir, "P(X) <- P(X,Y)", 0, "", "", "", false, 0, false); err == nil {
		t.Error("impure metaquery accepted under type-0")
	}
}

func TestRunDecideYes(t *testing.T) {
	dir := writeTelecomCSV(t)
	if err := runDecide(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "cnf", "1/2", 0, metaquery.ApproxOptions{}, true, 0); err != nil {
		t.Fatalf("decide run failed: %v", err)
	}
}

func TestRunDecideNo(t *testing.T) {
	dir := writeTelecomCSV(t)
	// No index can strictly exceed 1: a clean NO, reported as errNoVerdict
	// so main can exit with the dedicated status.
	err := runDecide(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "sup", "1", 0, metaquery.ApproxOptions{}, false, 0)
	if err != errNoVerdict {
		t.Fatalf("NO decision returned %v, want errNoVerdict", err)
	}
}

func TestRunDecideWorkers(t *testing.T) {
	dir := writeTelecomCSV(t)
	// The parallel path must reach the same verdicts as the sequential one.
	if err := runDecide(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "cnf", "1/2", 3, metaquery.ApproxOptions{}, false, 0); err != nil {
		t.Fatalf("parallel decide YES failed: %v", err)
	}
	if err := runDecide(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "sup", "1", 3, metaquery.ApproxOptions{}, false, 0); err != errNoVerdict {
		t.Fatalf("parallel decide NO returned %v, want errNoVerdict", err)
	}
}

func TestRunDecideApprox(t *testing.T) {
	dir := writeTelecomCSV(t)
	approx := metaquery.ApproxOptions{Epsilon: 0.1, Delta: 0.1}
	// The ε–δ path must reach the same verdicts as the exact one on this
	// tiny database (the sample budget covers every population).
	if err := runDecide(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "cnf", "1/2", 0, approx, true, 0); err != nil {
		t.Fatalf("approx decide YES failed: %v", err)
	}
	if err := runDecide(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "sup", "1", 0, approx, false, 0); err != errNoVerdict {
		t.Fatalf("approx decide NO returned %v, want errNoVerdict", err)
	}
	// Invalid parameters surface as hard errors through Prepare.
	bad := metaquery.ApproxOptions{Epsilon: 2, Delta: 0.1}
	if err := runDecide(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "cnf", "1/2", 0, bad, false, 0); err == nil || err == errNoVerdict {
		t.Fatalf("invalid approx options returned %v, want a hard error", err)
	}
}

func TestRunExplain(t *testing.T) {
	dir := writeTelecomCSV(t)
	if err := runExplain(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "0", "", "", 0, 0, true, 0); err != nil {
		t.Fatalf("explain run failed: %v", err)
	}
	// Validation errors still surface through the explain path.
	if err := runExplain("", "R(X) <- P(X)", 0, "", "", "", 0, 0, false, 0); err == nil {
		t.Error("explain with missing -db accepted")
	}
	if err := runExplain(dir, "R(X) <- P(X)", 5, "", "", "", 0, 0, false, 0); err == nil {
		t.Error("explain with bad -type accepted")
	}
	if err := runExplain(dir, "R(X,Z) <- P(X,Y), Q(Y,Z)", 0, "x/y", "", "", 0, 0, false, 0); err == nil {
		t.Error("explain with bad threshold accepted")
	}
}

func TestRunDecideValidation(t *testing.T) {
	dir := writeTelecomCSV(t)
	for name, fn := range map[string]func() error{
		"bad index": func() error {
			return runDecide(dir, "R(X) <- P(X)", 0, "bogus", "0", 0, metaquery.ApproxOptions{}, false, 0)
		},
		"bad bound": func() error {
			return runDecide(dir, "R(X) <- P(X)", 0, "sup", "x/y", 0, metaquery.ApproxOptions{}, false, 0)
		},
		"bad type": func() error {
			return runDecide(dir, "R(X) <- P(X)", 9, "sup", "0", 0, metaquery.ApproxOptions{}, false, 0)
		},
		"missing db": func() error {
			return runDecide("", "R(X) <- P(X)", 0, "sup", "0", 0, metaquery.ApproxOptions{}, false, 0)
		},
		"bad query": func() error {
			return runDecide(dir, "not a query", 0, "sup", "0", 0, metaquery.ApproxOptions{}, false, 0)
		},
	} {
		if err := fn(); err == nil || err == errNoVerdict {
			t.Errorf("%s: got %v, want a hard error", name, err)
		}
	}
}

// captureStdout returns what fn prints to standard output, failing the
// test when fn returns an error.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a read error shows as a short capture
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	got := <-out
	if ferr != nil {
		t.Fatal(ferr)
	}
	return got
}

// TestRunWorkers checks that -workers reaches the parallel enumeration:
// the rule listing and the -explain per-node report equal the sequential
// ones, and the sequential naive engine rejects the flag.
func TestRunWorkers(t *testing.T) {
	dir := writeTelecomCSV(t)
	const q = "R(X,Z) <- P(X,Y), Q(Y,Z)"
	seq := captureStdout(t, func() error { return runTimed(dir, q, 0, "", "", "", false, 0, 0, false, 0) })
	par := captureStdout(t, func() error { return runTimed(dir, q, 0, "", "", "", false, 0, 2, false, 0) })
	if !strings.Contains(seq, "speaks(X,Z) <- citizen(X,Y), language(Y,Z)") {
		t.Fatalf("sequential run misses the Figure 1 rule:\n%s", seq)
	}
	if par != seq {
		t.Errorf("-workers 2 printed\n%s\nsequential printed\n%s", par, seq)
	}
	seqEx := captureStdout(t, func() error { return runExplain(dir, q, 0, "0", "", "", 0, 0, false, 0) })
	parEx := captureStdout(t, func() error { return runExplain(dir, q, 0, "0", "", "", 0, 2, false, 0) })
	if !strings.Contains(seqEx, "# plan: ") {
		t.Fatalf("explain run printed no plan:\n%s", seqEx)
	}
	if parEx != seqEx {
		t.Errorf("-explain -workers 2 printed\n%s\nsequential printed\n%s", parEx, seqEx)
	}
	if err := runTimed(dir, q, 0, "", "", "", true, 0, 2, false, 0); err == nil {
		t.Error("-naive -workers 2 accepted")
	}
}
