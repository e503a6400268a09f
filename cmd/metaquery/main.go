// Command metaquery answers a metaquery over a CSV database directory.
//
// Usage:
//
//	metaquery -db DIR -query "R(X,Z) <- P(X,Y), Q(Y,Z)" \
//	    [-type 0|1|2] [-min-sup R] [-min-cnf R] [-min-cvr R] \
//	    [-naive] [-limit N] [-stats] [-timeout D] [-explain] \
//	    [-decide sup|cnf|cvr] [-k R] [-workers N] \
//	    [-approx-eps E -approx-delta D [-approx-max-samples N]]
//
// The database directory holds one CSV file per relation (rows are tuples;
// the file name without extension is the relation name). Thresholds are
// exact rationals written as "1/2", "0.5" or "0"; every comparison is
// strict (index > threshold), as in the paper. Omitted thresholds are
// unconstrained.
//
// -decide switches from enumeration to decision answering: instead of
// listing every admissible rule, the command reports whether ANY type-T
// instantiation has the named index strictly above -k (default 0), using
// the engine's first-witness path (only the queried index is evaluated and
// the search stops at the first witness). On YES the witness rule is
// printed; the exit status is 0 for YES and 3 for NO, so scripts can
// branch on the verdict. -stats prints the per-verdict search counters.
//
// -workers N partitions the first decomposition node's candidate atoms
// across N goroutines: in decision mode they share a first-witness
// cancellation, in enumeration (and -explain) mode their answers are
// merged and sorted. Verdicts, answers and the explain report are
// identical to the sequential run. The naive engine is sequential and
// rejects -workers.
//
// -approx-eps/-approx-delta (decision mode only) switch the decision to
// the sampling ε–δ path: candidate fractions are estimated from uniform
// row samples and accepted or rejected as soon as the confidence interval
// at 1−δ clears the bound, escalating to exact evaluation when it
// straddles. YES verdicts are exactly confirmed and never wrong; NO
// verdicts are wrong with probability at most δ when the true value lies
// outside k±ε. -approx-max-samples caps the per-fraction draws (0 derives
// the budget from ε and δ). -stats additionally reports samples drawn and
// escalations.
//
// -explain (enumeration mode only) prints the chosen plan before the
// answers: the decomposition node visit order with the cost planner's
// per-node output estimates and the actually observed node-table row
// counts side by side. Estimate-vs-actual is the debugging surface for
// the cardinality-statistics subsystem behind cost-based join ordering.
//
// -timeout bounds the search wall-clock (e.g. "2s", "500ms"; 0 = none).
// When the deadline passes mid-search, the answers found so far are still
// printed (findRules engine; the naive engine keeps no partial results), a
// "# search timed out" note marks the output as partial, and the command
// exits with status 4 instead of 1.
//
// Example:
//
//	metaquery -db ./testdata/telecom -query 'R(X,Z) <- P(X,Y), Q(Y,Z)' \
//	    -type 1 -min-cnf 1/2 -min-sup 1/4 -timeout 5s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/mqgo/metaquery"
)

// exitTimeout is the distinct exit status for a search cut off by
// -timeout; partial results have already been printed in that case.
const exitTimeout = 4

// exitNo is the exit status for a -decide run whose verdict is NO, so
// shell scripts can branch on the decision.
const exitNo = 3

// errNoVerdict marks a completed -decide run with a NO answer; main maps
// it to exitNo after the verdict has been printed.
var errNoVerdict = errors.New("decision verdict is NO")

func main() {
	var (
		dbDir   = flag.String("db", "", "directory of CSV files, one per relation (required)")
		query   = flag.String("query", "", "metaquery, e.g. \"R(X,Z) <- P(X,Y), Q(Y,Z)\" (required)")
		typN    = flag.Int("type", 0, "instantiation type: 0, 1 or 2")
		minSup  = flag.String("min-sup", "", "strict support threshold (rational), empty = unconstrained")
		minCnf  = flag.String("min-cnf", "", "strict confidence threshold (rational), empty = unconstrained")
		minCvr  = flag.String("min-cvr", "", "strict cover threshold (rational), empty = unconstrained")
		naive   = flag.Bool("naive", false, "use the naive reference engine instead of findRules")
		limit   = flag.Int("limit", 0, "stop after N answers (0 = all; findRules engine only)")
		showSts = flag.Bool("stats", false, "print engine search statistics")
		timeout = flag.Duration("timeout", 0, "bound the search wall-clock, e.g. 2s (0 = none)")
		decide  = flag.String("decide", "", "decision mode: answer whether index sup|cnf|cvr exceeds -k instead of enumerating")
		kBound  = flag.String("k", "", "decision bound for -decide (strict: index > k; default 0)")
		workers = flag.Int("workers", 0, "partition the first node's candidates across N goroutines (findRules engine only; <=1 = sequential)")
		explain = flag.Bool("explain", false, "print the chosen join order with per-node cost estimates vs. actual row counts (enumeration mode only)")
		apxEps  = flag.Float64("approx-eps", 0, "approximate decision half-band ε in (0,1): sample the fractions instead of computing them exactly (-decide only; needs -approx-delta)")
		apxDel  = flag.Float64("approx-delta", 0, "approximate decision error bound δ in (0,1) (-decide only; needs -approx-eps)")
		apxMax  = flag.Int("approx-max-samples", 0, "per-fraction sample budget before escalating to exact evaluation (0 = derive from ε and δ)")
		trace   = flag.Bool("trace", false, "print the execution's span tree (epoch binding, node joins with estimate-vs-actual rows, sampling) to stderr")
	)
	flag.Parse()
	if *trace {
		cliTracer = metaquery.NewTracer()
	}
	var err error
	if *decide != "" {
		// The enumeration-only flags have no meaning in decision mode:
		// reject them instead of silently dropping a constraint the user
		// believes applied.
		switch {
		case *minSup != "" || *minCnf != "" || *minCvr != "":
			err = fmt.Errorf("-min-sup/-min-cnf/-min-cvr do not apply with -decide; use -k for the decision bound")
		case *naive:
			err = fmt.Errorf("-naive does not apply with -decide (the decision path is engine-only)")
		case *limit != 0:
			err = fmt.Errorf("-limit does not apply with -decide")
		case *explain:
			err = fmt.Errorf("-explain does not apply with -decide (the report describes the enumeration plan)")
		default:
			approx := metaquery.ApproxOptions{Epsilon: *apxEps, Delta: *apxDel, MaxSamples: *apxMax}
			err = runDecide(*dbDir, *query, *typN, *decide, *kBound, *workers, approx, *showSts, *timeout)
		}
		printTrace()
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "metaquery: decision timed out before reaching a verdict")
			os.Exit(exitTimeout)
		}
	} else if *kBound != "" {
		// The decision bound means nothing without -decide; reject it
		// rather than silently running an unconstrained enumeration.
		err = fmt.Errorf("-k requires -decide (use -min-sup/-min-cnf/-min-cvr for enumeration thresholds)")
	} else if *apxEps != 0 || *apxDel != 0 || *apxMax != 0 {
		err = fmt.Errorf("-approx-eps/-approx-delta/-approx-max-samples require -decide (enumeration is always exact)")
	} else if *explain && *naive {
		err = fmt.Errorf("-explain does not apply with -naive (the naive engine has no plan)")
	} else if *trace && *naive {
		err = fmt.Errorf("-trace does not apply with -naive (the naive engine records no spans)")
	} else {
		if *explain {
			err = runExplain(*dbDir, *query, *typN, *minSup, *minCnf, *minCvr, *limit, *workers, *showSts, *timeout)
		} else {
			err = runTimed(*dbDir, *query, *typN, *minSup, *minCnf, *minCvr, *naive, *limit, *workers, *showSts, *timeout)
		}
		printTrace()
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "metaquery: search timed out, results are partial")
			os.Exit(exitTimeout)
		}
	}
	if err != nil {
		if errors.Is(err, errNoVerdict) {
			os.Exit(exitNo)
		}
		fmt.Fprintln(os.Stderr, "metaquery:", err)
		os.Exit(1)
	}
}

// runDecide answers the decision problem ⟨DB, MQ, ix, k, T⟩ through the
// engine's first-witness path and prints the verdict (plus the witness
// rule on YES). workers > 1 partitions the first decomposition node's
// candidates across that many goroutines sharing a first-witness
// cancellation. With approx configured (-approx-eps/-approx-delta) the
// candidate fractions are decided by uniform row sampling under the ε–δ
// contract instead of exactly, escalating to exact evaluation when the
// confidence interval straddles the bound. It returns errNoVerdict on a
// completed NO so main can map it to the dedicated exit status.
func runDecide(dbDir, query string, typN int, index, kBound string, workers int, approx metaquery.ApproxOptions, showStats bool, timeout time.Duration) error {
	var ix metaquery.Index
	switch index {
	case "sup":
		ix = metaquery.Sup
	case "cnf":
		ix = metaquery.Cnf
	case "cvr":
		ix = metaquery.Cvr
	default:
		return fmt.Errorf("-decide must be sup, cnf or cvr (got %q)", index)
	}
	if kBound == "" {
		kBound = "0"
	}
	k, err := metaquery.ParseRat(kBound)
	if err != nil {
		return fmt.Errorf("-k: %w", err)
	}
	db, mq, typ, err := loadQuery(dbDir, query, typN)
	if err != nil {
		return err
	}

	ctx, cancel := searchContext(timeout)
	defer cancel()

	prep, err := metaquery.NewEngine(db).Prepare(mq, metaquery.Options{Type: typ, Workers: workers, Approx: approx})
	if err != nil {
		return err
	}
	var (
		yes   bool
		wit   *metaquery.Instantiation
		stats *metaquery.Stats
	)
	if approx.Enabled() {
		yes, wit, stats, err = prep.DecideApproxStats(ctx, ix, k)
	} else {
		yes, wit, stats, err = prep.DecideFirstStats(ctx, ix, k)
	}
	if err != nil {
		return err
	}
	fmt.Printf("# decision: is there a %s instantiation with %s > %s?\n", typ, ix, k)
	if approx.Enabled() {
		fmt.Printf("# method: approx (eps=%g delta=%g); YES verdicts are exactly confirmed\n", approx.Epsilon, approx.Delta)
	}
	if showStats {
		fmt.Printf("# width=%d nodes=%d candidates=%d pruned_empty=%d pruned_support=%d bodies=%d heads=%d heads_skipped=%d samples=%d escalated=%d\n",
			stats.Width, stats.Nodes, stats.BodyCandidatesTried, stats.BodiesPrunedEmpty,
			stats.BodiesPrunedSupport, stats.BodiesReachedRoot, stats.HeadsTried, stats.HeadsSkipped,
			stats.SamplesDrawn, stats.ApproxEscalated)
	}
	if !yes {
		fmt.Println("NO")
		return errNoVerdict
	}
	rule, err := wit.Apply(mq)
	if err != nil {
		return err
	}
	fmt.Printf("YES  witness: %s\n", rule.String())
	return nil
}

// runExplain answers the query through Prepared.ExplainRun and prints the
// plan report — the chosen node visit order with the cost planner's
// per-node estimates and the observed node-table row counts side by side —
// before the answers. The estimate-vs-actual columns are the debugging
// surface of the cardinality-statistics subsystem: a node whose actual
// rows dwarf its estimate is where the planner's model diverges from the
// data.
func runExplain(dbDir, query string, typN int, minSup, minCnf, minCvr string, limit, workers int, showStats bool, timeout time.Duration) error {
	db, mq, typ, err := loadQuery(dbDir, query, typN)
	if err != nil {
		return err
	}
	th, err := parseThresholds(minSup, minCnf, minCvr)
	if err != nil {
		return err
	}

	ctx, cancel := searchContext(timeout)
	defer cancel()

	prep, err := metaquery.NewEngine(db).Prepare(mq, metaquery.Options{Type: typ, Thresholds: th, Limit: limit, Workers: workers})
	if err != nil {
		return err
	}
	// ExplainRun still returns the report and the answers found so far on
	// a deadline, so a timed-out explain keeps its partial output (and
	// main maps the error to the dedicated timeout exit status).
	ex, answers, searchErr := prep.ExplainRun(ctx)
	if searchErr != nil && !errors.Is(searchErr, context.DeadlineExceeded) {
		return searchErr
	}
	for _, line := range strings.Split(strings.TrimRight(ex.String(), "\n"), "\n") {
		fmt.Printf("# %s\n", line)
	}
	if showStats {
		printEngineStats(ex.Stats)
	}
	printAnswers(db, typ, answers)
	if searchErr != nil {
		fmt.Printf("# search timed out after %v; the answers above are partial\n", timeout)
	}
	return searchErr
}

// loadQuery validates the shared -db/-query/-type arguments and loads the
// database and metaquery, the prologue of every CLI mode.
func loadQuery(dbDir, query string, typN int) (*metaquery.Database, *metaquery.Metaquery, metaquery.InstType, error) {
	if dbDir == "" || query == "" {
		return nil, nil, 0, fmt.Errorf("both -db and -query are required (see -help)")
	}
	if typN < 0 || typN > 2 {
		return nil, nil, 0, fmt.Errorf("-type must be 0, 1 or 2")
	}
	db, err := metaquery.LoadCSVDir(dbDir)
	if err != nil {
		return nil, nil, 0, err
	}
	mq, err := metaquery.Parse(query)
	if err != nil {
		return nil, nil, 0, err
	}
	return db, mq, metaquery.InstType(typN), nil
}

// searchContext bounds the search wall-clock when timeout is positive.
func searchContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx := context.Background()
	if cliTracer != nil {
		ctx = metaquery.WithTracer(ctx, cliTracer)
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// cliTracer is the -trace tracer, injected into every search context and
// rendered to stderr after the run.
var cliTracer *metaquery.Tracer

// printTrace renders the -trace span tree to stderr, once. No-op without
// -trace.
func printTrace() {
	if cliTracer == nil {
		return
	}
	fmt.Fprint(os.Stderr, "# trace:\n"+metaquery.RenderTree(cliTracer.Tree()))
	cliTracer = nil
}

// printEngineStats prints the enumeration search counters comment line.
func printEngineStats(st *metaquery.Stats) {
	fmt.Printf("# width=%d nodes=%d candidates=%d pruned_empty=%d pruned_support=%d bodies=%d heads=%d\n",
		st.Width, st.Nodes, st.BodyCandidatesTried, st.BodiesPrunedEmpty,
		st.BodiesPrunedSupport, st.BodiesReachedRoot, st.HeadsTried)
}

// printAnswers prints the database summary, the answer count and one line
// per answer.
func printAnswers(db *metaquery.Database, typ metaquery.InstType, answers []metaquery.Answer) {
	fmt.Printf("# database: %d relations, %d tuples; %s instantiations\n",
		db.NumRelations(), db.Size(), typ)
	fmt.Printf("# %d answers\n", len(answers))
	for _, a := range answers {
		fmt.Printf("%-60s sup=%-8s cnf=%-8s cvr=%-8s\n", a.Rule.String(),
			a.Sup.String(), a.Cnf.String(), a.Cvr.String())
	}
}

// parseThresholds builds the strict admissibility thresholds from the
// CLI's rational strings (empty = unconstrained).
func parseThresholds(minSup, minCnf, minCvr string) (metaquery.Thresholds, error) {
	var th metaquery.Thresholds
	set := func(s string, k *metaquery.Rat, check *bool) error {
		if s == "" {
			return nil
		}
		r, err := metaquery.ParseRat(s)
		if err != nil {
			return err
		}
		*k, *check = r, true
		return nil
	}
	if err := set(minSup, &th.Sup, &th.CheckSup); err != nil {
		return th, err
	}
	if err := set(minCnf, &th.Cnf, &th.CheckCnf); err != nil {
		return th, err
	}
	if err := set(minCvr, &th.Cvr, &th.CheckCvr); err != nil {
		return th, err
	}
	return th, nil
}

// run answers the query without a time bound. It is the historical entry
// point, kept for compatibility; runTimed is the full CLI.
func run(dbDir, query string, typN int, minSup, minCnf, minCvr string, naive bool, limit int, showStats bool) error {
	return runTimed(dbDir, query, typN, minSup, minCnf, minCvr, naive, limit, 0, showStats, 0)
}

func runTimed(dbDir, query string, typN int, minSup, minCnf, minCvr string, naive bool, limit, workers int, showStats bool, timeout time.Duration) error {
	if naive && workers != 0 {
		return fmt.Errorf("-workers does not apply with -naive (the naive engine is sequential)")
	}
	db, mq, typ, err := loadQuery(dbDir, query, typN)
	if err != nil {
		return err
	}
	th, err := parseThresholds(minSup, minCnf, minCvr)
	if err != nil {
		return err
	}

	ctx, cancel := searchContext(timeout)
	defer cancel()

	var answers []metaquery.Answer
	var searchErr error
	if naive {
		answers, searchErr = metaquery.NaiveFindRulesContext(ctx, db, mq, typ, th)
		if searchErr != nil && !errors.Is(searchErr, context.DeadlineExceeded) {
			return searchErr
		}
	} else {
		eng := metaquery.NewEngine(db)
		prep, err := eng.Prepare(mq, metaquery.Options{Type: typ, Thresholds: th, Limit: limit, Workers: workers})
		if err != nil {
			return err
		}
		// Stream so that answers found before a deadline are kept.
		var stats metaquery.Stats
		for a, err := range prep.StreamStats(ctx, &stats) {
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					searchErr = err
					break
				}
				return err
			}
			answers = append(answers, a)
		}
		sort.Slice(answers, func(i, j int) bool {
			return answers[i].Rule.String() < answers[j].Rule.String()
		})
		if showStats {
			printEngineStats(&stats)
		}
	}

	printAnswers(db, typ, answers)
	if searchErr != nil {
		if naive {
			fmt.Printf("# search timed out after %v; the naive engine keeps no partial results\n", timeout)
		} else {
			fmt.Printf("# search timed out after %v; the answers above are partial\n", timeout)
		}
		return searchErr
	}
	return nil
}
