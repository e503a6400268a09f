package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/relation"
)

// figure1DB is the paper's running example: citizen/language/speaks.
func figure1DB() *relation.Database {
	db := relation.NewDatabase()
	db.MustAddRelation("citizen", 2)
	db.MustAddRelation("language", 2)
	db.MustAddRelation("speaks", 2)
	db.MustInsertNamed("citizen", "john", "italy")
	db.MustInsertNamed("citizen", "maria", "italy")
	db.MustInsertNamed("language", "italy", "italian")
	db.MustInsertNamed("speaks", "john", "italian")
	db.MustInsertNamed("speaks", "maria", "italian")
	return db
}

// newTestServer builds a Server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body as JSON and returns the status code and raw answer.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	code, out, err := postJSONErr(url, body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return code, out
}

// postJSONErr is postJSON returning transport errors instead of failing
// the test, for use off the test goroutine.
func postJSONErr(url string, body any) (int, []byte, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return v
}

// loadScenario registers a gen scenario's database under name and returns
// the scenario.
func loadScenario(t *testing.T, s *Server, name, shape string, seed int64) *gen.Scenario {
	t.Helper()
	sc, err := gen.NewScenario(seed, shape)
	if err != nil {
		t.Fatalf("scenario %s/%d: %v", shape, seed, err)
	}
	s.LoadDatabase(name, sc.DB)
	return sc
}

func TestQueryEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.LoadDatabase("fig1", figure1DB())

	code, body := postJSON(t, ts.URL+"/v1/query", searchRequest{
		DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 0,
		MinSup: "0", MinCnf: "1/2", MinCvr: "0",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(resp.Answers) == 0 {
		t.Fatalf("no answers: %s", body)
	}
	if resp.CacheHit {
		t.Fatalf("first query must be a cache miss")
	}
	if resp.Stats == nil || resp.Stats.Answers != len(resp.Answers) {
		t.Fatalf("stats missing or inconsistent: %+v", resp.Stats)
	}
	// The paper's rule must be among the answers.
	want := "speaks(X,Z) <- citizen(X,Y), language(Y,Z)"
	found := false
	for _, a := range resp.Answers {
		if a.Rule == want {
			found = true
			if a.Sup != "1" || a.Cnf != "1" {
				t.Fatalf("unexpected indices for %s: %+v", want, a)
			}
		}
	}
	if !found {
		t.Fatalf("expected rule %q in answers: %s", want, body)
	}
}

func TestPreparedCacheAlphaEquivalentHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.LoadDatabase("fig1", figure1DB())

	ask := func(query string) queryResponse {
		code, body := postJSON(t, ts.URL+"/v1/query", searchRequest{DB: "fig1", Query: query, Type: 1})
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var resp queryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		return resp
	}

	first := ask("R(X,Z) <- P(X,Y), Q(Y,Z)")
	if first.CacheHit {
		t.Fatalf("first query must miss")
	}
	// α-equivalent renaming must hit the same cache entry...
	renamed := ask("S(A,C) <- T(A,B), U(B,C)")
	if !renamed.CacheHit {
		t.Fatalf("α-equivalent query should hit the prepared cache")
	}
	// ...and return the identical answer set (the representative's naming).
	if fmt.Sprint(first.Answers) != fmt.Sprint(renamed.Answers) {
		t.Fatalf("α-equivalent answers differ:\n%v\nvs\n%v", first.Answers, renamed.Answers)
	}
	// A different equality pattern must NOT hit.
	other := ask("R(X,X) <- P(X,Y), Q(Y,X)")
	if other.CacheHit {
		t.Fatalf("non-equivalent query must not hit the cache")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("cache counters: hits=%d misses=%d (want 1/2)", st.CacheHits, st.CacheMisses)
	}
}

func TestDecideEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.LoadDatabase("fig1", figure1DB())

	code, body := postJSON(t, ts.URL+"/v1/decide", decideRequest{
		DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 0, Index: "cnf", K: "1/2",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp decideResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !resp.Yes || resp.Witness == "" {
		t.Fatalf("expected YES with witness: %s", body)
	}
	// An impossible bound answers NO.
	code, body = postJSON(t, ts.URL+"/v1/decide", decideRequest{
		DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 0, Index: "cnf", K: "1",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	resp = decideResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Yes || resp.Witness != "" {
		t.Fatalf("expected NO without witness: %s", body)
	}
	// The workers knob must be honored (and keyed separately in the cache).
	code, body = postJSON(t, ts.URL+"/v1/decide", decideRequest{
		DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 0, Index: "cnf", K: "1/2", Workers: 3,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !resp.Yes {
		t.Fatalf("workers=3 flipped the verdict: %s", body)
	}
	if resp.CacheHit {
		t.Fatalf("workers=3 must prepare its own cache entry (Workers is part of the key)")
	}
	if resp.Method != "exact" {
		t.Fatalf("exact decision reports method %q, want \"exact\": %s", resp.Method, body)
	}
}

// /v1/decide with epsilon/delta runs the sampling ε–δ path: the verdict
// must agree with the exact one on this tiny database (sampling covers the
// population), the response must say so via "method": "approx", and the
// approx parameters must key their own prepared-cache entry.
func TestDecideApproxEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.LoadDatabase("fig1", figure1DB())

	ask := func(req decideRequest) (decideResponse, []byte) {
		t.Helper()
		code, body := postJSON(t, ts.URL+"/v1/decide", req)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var resp decideResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		return resp, body
	}

	exact, _ := ask(decideRequest{DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 0, Index: "cnf", K: "1/2"})
	approx, body := ask(decideRequest{
		DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 0, Index: "cnf", K: "1/2",
		Epsilon: 0.1, Delta: 0.1,
	})
	if approx.Method != "approx" {
		t.Fatalf("method %q, want \"approx\": %s", approx.Method, body)
	}
	if approx.Yes != exact.Yes {
		t.Fatalf("approx verdict %v differs from exact %v on a fully covered population", approx.Yes, exact.Yes)
	}
	if approx.Yes && approx.Witness == "" {
		t.Fatalf("approx YES without witness: %s", body)
	}
	if approx.CacheHit {
		t.Fatal("approx request must prepare its own cache entry (epsilon/delta are part of the key)")
	}
	// Replay hits the approx entry, never the exact one.
	again, _ := ask(decideRequest{
		DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 0, Index: "cnf", K: "1/2",
		Epsilon: 0.1, Delta: 0.1,
	})
	if !again.CacheHit {
		t.Fatal("identical approx request should hit the prepared cache")
	}

	// Out-of-range and half-configured parameters are rejected up front.
	for _, bad := range []decideRequest{
		{DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Index: "cnf", Epsilon: 1.5, Delta: 0.1},
		{DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Index: "cnf", Epsilon: 0.1, Delta: -1},
		{DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Index: "cnf", Epsilon: 0.1},
		{DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Index: "cnf", Delta: 0.1},
		{DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Index: "cnf", Epsilon: 0.1, Delta: 0.1, MaxSamples: -1},
	} {
		code, body := postJSON(t, ts.URL+"/v1/decide", bad)
		if code != http.StatusBadRequest {
			t.Fatalf("invalid approx params %+v: status %d, want 400: %s", bad, code, body)
		}
	}
}

func TestStreamEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.LoadDatabase("fig1", figure1DB())

	code, body := postJSON(t, ts.URL+"/v1/stream", searchRequest{
		DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 0,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows, trailer := parseNDJSON(t, body)
	if trailer.Status != "ok" {
		t.Fatalf("trailer: %+v", trailer)
	}
	if trailer.Answers != len(rows) {
		t.Fatalf("trailer says %d answers, stream carried %d", trailer.Answers, len(rows))
	}
	if len(rows) == 0 {
		t.Fatalf("no rows streamed")
	}
	st := s.Stats()
	if st.StreamRows != uint64(len(rows)) || st.Streams != 1 {
		t.Fatalf("stream metrics: %+v", st)
	}

	// Every stream is NDJSON, whether its first line is a row or, with no
	// answer above the threshold, the trailer.
	for _, minSup := range []string{"", "1"} {
		blob, _ := json.Marshal(searchRequest{DB: "fig1", Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", MinSup: minSup})
		resp, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		rows, _ := parseNDJSON(t, body)
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("min_sup %q (%d rows): Content-Type %q, want application/x-ndjson", minSup, len(rows), ct)
		}
		if (minSup == "") != (len(rows) > 0) {
			t.Errorf("min_sup %q streamed %d rows", minSup, len(rows))
		}
	}
}

// parseNDJSON splits an NDJSON body into answer rows and the trailer line.
func parseNDJSON(t *testing.T, body []byte) ([]answerJSON, streamTrailer) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 0 {
		t.Fatalf("empty NDJSON body")
	}
	var trailer streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("trailer line %q: %v", lines[len(lines)-1], err)
	}
	if trailer.Status == "" {
		t.Fatalf("last line is not a trailer: %q", lines[len(lines)-1])
	}
	var rows []answerJSON
	for _, line := range lines[:len(lines)-1] {
		var a answerJSON
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		rows = append(rows, a)
	}
	return rows, trailer
}

func TestDBLoadAndList(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Inline load.
	code, body := postJSON(t, ts.URL+"/v1/db/tiny", jsonDatabase{
		Relations: []jsonRelation{
			{Name: "e", Arity: 2, Tuples: [][]string{{"a", "b"}, {"b", "c"}}},
			{Name: "n", Arity: 1, Tuples: [][]string{{"a"}}},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("load status %d: %s", code, body)
	}
	var info dbInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if info.Relations != 2 || info.Tuples != 3 {
		t.Fatalf("load info: %+v", info)
	}

	// It is immediately queryable.
	code, body = postJSON(t, ts.URL+"/v1/query", searchRequest{DB: "tiny", Query: "R(X,Y) <- P(X,Y)", Type: 0})
	if code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, body)
	}

	// Listed.
	dbs := getJSON[[]dbInfo](t, ts.URL+"/v1/db")
	if len(dbs) != 1 || dbs[0].Name != "tiny" {
		t.Fatalf("list: %+v", dbs)
	}

	// Replacing resets the prepared cache.
	code, _ = postJSON(t, ts.URL+"/v1/db/tiny", jsonDatabase{
		Relations: []jsonRelation{{Name: "e", Arity: 2, Tuples: [][]string{{"x", "y"}}}},
	})
	if code != http.StatusOK {
		t.Fatalf("replace status %d", code)
	}
	code, body = postJSON(t, ts.URL+"/v1/query", searchRequest{DB: "tiny", Query: "R(X,Y) <- P(X,Y)", Type: 0})
	if code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.CacheHit {
		t.Fatalf("replacing a database must discard its prepared cache")
	}
}

func TestStatsAndDebugEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.LoadDatabase("fig1", figure1DB())
	postJSON(t, ts.URL+"/v1/query", searchRequest{DB: "fig1", Query: "R(X,Y) <- P(X,Y)", Type: 0})

	st := getJSON[Stats](t, ts.URL+"/v1/stats")
	if st.Queries != 1 || len(st.Databases) != 1 || st.Databases[0].Tuples != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxInFlight != 64 {
		t.Fatalf("defaulted MaxInFlight = %d, want 64", st.MaxInFlight)
	}

	resp, err := http.Get(ts.URL + "/debug")
	if err != nil {
		t.Fatalf("GET /debug: %v", err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"mqserve status", "queries", "fig1", "prep cache"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/debug missing %q:\n%s", want, text)
		}
	}
}

// TestConcurrentMixedLoad exercises query/decide/stream concurrently on one
// server (run with -race): shared Engine, shared Prepared cache, shared
// admission semaphore.
func TestConcurrentMixedLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 8})
	sc := loadScenario(t, s, "gen", "t0-chain", 7)
	query := sc.MQ.String()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var code int
			var body []byte
			var err error
			switch i % 3 {
			case 0:
				code, body, err = postJSONErr(ts.URL+"/v1/query", searchRequest{DB: "gen", Query: query, Type: int(sc.Type)})
			case 1:
				code, body, err = postJSONErr(ts.URL+"/v1/decide", decideRequest{DB: "gen", Query: query, Type: int(sc.Type), Index: "sup", Workers: i % 4})
			case 2:
				code, body, err = postJSONErr(ts.URL+"/v1/stream", searchRequest{DB: "gen", Query: query, Type: int(sc.Type)})
			}
			if err != nil {
				errs <- fmt.Sprintf("request %d: %v", i, err)
				return
			}
			// 429 is a legitimate answer under saturation; anything else
			// non-200 is a bug.
			if code != http.StatusOK && code != http.StatusTooManyRequests {
				errs <- fmt.Sprintf("request %d: status %d: %s", i, code, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := s.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight not drained: %d", st.InFlight)
	}
}
