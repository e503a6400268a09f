package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/rat"
)

// renderedAnswers formats a direct library answer set the way the server
// does, sorted for multiset comparison.
func renderedAnswers(answers []core.Answer) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = fmt.Sprintf("%s|%s|%s|%s", a.Rule.String(), a.Sup.String(), a.Cnf.String(), a.Cvr.String())
	}
	sort.Strings(out)
	return out
}

func renderedJSON(answers []answerJSON) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = fmt.Sprintf("%s|%s|%s|%s", a.Rule, a.Sup, a.Cnf, a.Cvr)
	}
	sort.Strings(out)
	return out
}

// thresholdFields renders a scenario's Thresholds into the request's
// min_sup/min_cnf/min_cvr fields (empty string = check disabled).
func thresholdFields(th core.Thresholds) (sup, cnf, cvr string) {
	if th.CheckSup {
		sup = th.Sup.String()
	}
	if th.CheckCnf {
		cnf = th.Cnf.String()
	}
	if th.CheckCvr {
		cvr = th.Cvr.String()
	}
	return
}

// TestServerDifferentialAgainstEngine sweeps the seeded generator shapes
// through the HTTP surface and checks each endpoint against the direct
// library path on the same scenario:
//
//   - /v1/query answers ≡ Prepared.FindRules (rule strings and exact
//     sup/cnf/cvr values),
//   - /v1/stream rows ≡ /v1/query answers (same multiset, trailer "ok"),
//   - /v1/decide verdicts ≡ Prepared.DecideFirst for each checked index,
//   - /v1/query bodies and /v1/stream rows and trailers are byte for byte
//     encoding/json's encoding of the same answers (checkQueryWire,
//     checkStreamWire).
//
// This is the transport-level analog of internal/diff's engine-vs-oracle
// sweep: it proves the server adds no query semantics of its own.
func TestServerDifferentialAgainstEngine(t *testing.T) {
	seeds := []int64{1, 2, 3}
	s, ts := newTestServer(t, Config{})

	for _, shape := range gen.Shapes() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", shape, seed), func(t *testing.T) {
				name := fmt.Sprintf("%s-%d", shape, seed)
				sc := loadScenario(t, s, name, shape, seed)
				minSup, minCnf, minCvr := thresholdFields(sc.Th)

				// Direct library path: same database, metaquery, options.
				prep, err := engine.NewEngine(sc.DB).Prepare(sc.MQ, engine.Options{Type: sc.Type, Thresholds: sc.Th})
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				want, err := prep.FindRules(context.Background())
				if err != nil {
					t.Fatalf("find: %v", err)
				}
				wantR := renderedAnswers(want)

				// /v1/query must return the same answer multiset.
				code, body := postJSON(t, ts.URL+"/v1/query", searchRequest{
					DB: name, Query: sc.MQ.String(), Type: int(sc.Type),
					MinSup: minSup, MinCnf: minCnf, MinCvr: minCvr,
				})
				if code != http.StatusOK {
					t.Fatalf("query status %d: %s", code, body)
				}
				var qr queryResponse
				if err := json.Unmarshal(body, &qr); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				checkQueryWire(t, body, want)
				gotR := renderedJSON(qr.Answers)
				if len(gotR) != len(wantR) {
					t.Fatalf("server %d answers, engine %d", len(gotR), len(wantR))
				}
				for i := range gotR {
					if gotR[i] != wantR[i] {
						t.Fatalf("answer %d:\n  server %s\n  engine %s", i, gotR[i], wantR[i])
					}
				}

				// /v1/stream must deliver the same multiset with an "ok"
				// trailer.
				code, body = postJSON(t, ts.URL+"/v1/stream", searchRequest{
					DB: name, Query: sc.MQ.String(), Type: int(sc.Type),
					MinSup: minSup, MinCnf: minCnf, MinCvr: minCvr,
				})
				if code != http.StatusOK {
					t.Fatalf("stream status %d: %s", code, body)
				}
				checkStreamWire(t, body, want)
				rows, trailer := parseNDJSON(t, body)
				if trailer.Status != "ok" || trailer.Answers != len(rows) {
					t.Fatalf("stream trailer %+v with %d rows", trailer, len(rows))
				}
				if sr := renderedJSON(rows); len(sr) != len(wantR) {
					t.Fatalf("stream %d rows, engine %d answers", len(sr), len(wantR))
				} else {
					for i := range sr {
						if sr[i] != wantR[i] {
							t.Fatalf("stream row %d:\n  server %s\n  engine %s", i, sr[i], wantR[i])
						}
					}
				}

				// The same two endpoints with workers > 1 must produce the
				// same answer multiset: sharded enumeration is a scheduling
				// choice, never a semantic one. The stream's row order is
				// nondeterministic, so only the sorted rendering is compared.
				workers := 2 + int(seed%3)
				code, body = postJSON(t, ts.URL+"/v1/query", searchRequest{
					DB: name, Query: sc.MQ.String(), Type: int(sc.Type),
					MinSup: minSup, MinCnf: minCnf, MinCvr: minCvr,
					Workers: workers,
				})
				if code != http.StatusOK {
					t.Fatalf("parallel query status %d: %s", code, body)
				}
				checkQueryWire(t, body, want)
				var pqr queryResponse
				if err := json.Unmarshal(body, &pqr); err != nil {
					t.Fatalf("unmarshal parallel query: %v", err)
				}
				if pr := renderedJSON(pqr.Answers); len(pr) != len(wantR) {
					t.Fatalf("parallel query (workers=%d) %d answers, engine %d", workers, len(pr), len(wantR))
				} else {
					for i := range pr {
						if pr[i] != wantR[i] {
							t.Fatalf("parallel query answer %d (workers=%d):\n  server %s\n  engine %s", i, workers, pr[i], wantR[i])
						}
					}
				}
				code, body = postJSON(t, ts.URL+"/v1/stream", searchRequest{
					DB: name, Query: sc.MQ.String(), Type: int(sc.Type),
					MinSup: minSup, MinCnf: minCnf, MinCvr: minCvr,
					Workers: workers,
				})
				if code != http.StatusOK {
					t.Fatalf("parallel stream status %d: %s", code, body)
				}
				checkStreamWire(t, body, want)
				prows, ptrailer := parseNDJSON(t, body)
				if ptrailer.Status != "ok" || ptrailer.Answers != len(prows) {
					t.Fatalf("parallel stream trailer %+v with %d rows", ptrailer, len(prows))
				}
				if sr := renderedJSON(prows); len(sr) != len(wantR) {
					t.Fatalf("parallel stream (workers=%d) %d rows, engine %d answers", workers, len(sr), len(wantR))
				} else {
					for i := range sr {
						if sr[i] != wantR[i] {
							t.Fatalf("parallel stream row %d (workers=%d):\n  server %s\n  engine %s", i, workers, sr[i], wantR[i])
						}
					}
				}

				// /v1/decide verdicts must match DecideFirst per index.
				for _, c := range []struct {
					ix      core.Index
					checked bool
					k       rat.Rat
				}{
					{core.Sup, sc.Th.CheckSup, sc.Th.Sup},
					{core.Cnf, sc.Th.CheckCnf, sc.Th.Cnf},
					{core.Cvr, sc.Th.CheckCvr, sc.Th.Cvr},
				} {
					if !c.checked {
						continue
					}
					wantYes, _, err := prep.DecideFirst(context.Background(), c.ix, c.k)
					if err != nil {
						t.Fatalf("decide %v: %v", c.ix, err)
					}
					code, body := postJSON(t, ts.URL+"/v1/decide", decideRequest{
						DB: name, Query: sc.MQ.String(), Type: int(sc.Type),
						Index: c.ix.String(), K: c.k.String(),
					})
					if code != http.StatusOK {
						t.Fatalf("decide %v status %d: %s", c.ix, code, body)
					}
					var dr decideResponse
					if err := json.Unmarshal(body, &dr); err != nil {
						t.Fatalf("unmarshal decide: %v", err)
					}
					if dr.Yes != wantYes {
						t.Fatalf("decide %v > %s: server %v, engine %v", c.ix, c.k.String(), dr.Yes, wantYes)
					}
					if wantYes && dr.Witness == "" {
						t.Fatalf("decide %v: YES without witness", c.ix)
					}
				}
			})
		}
	}
}
