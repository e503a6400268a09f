package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/rat"
)

// searchRequest is the body of /v1/query and /v1/stream: a metaquery over
// a named database with optional thresholds, limit and deadline.
type searchRequest struct {
	DB    string `json:"db"`
	Query string `json:"query"`
	// Type selects the instantiation semantics: 0, 1 or 2.
	Type int `json:"type"`
	// MinSup/MinCnf/MinCvr are strict rational thresholds ("1/2", "0.3");
	// empty means unconstrained.
	MinSup string `json:"min_sup,omitempty"`
	MinCnf string `json:"min_cnf,omitempty"`
	MinCvr string `json:"min_cvr,omitempty"`
	// Limit stops the search after N answers (0 = all).
	Limit int `json:"limit,omitempty"`
	// Workers shards the enumeration's first-node candidates across this
	// many goroutines feeding one merged answer stream (<=1 = sequential).
	// /v1/stream row order is nondeterministic for workers > 1; /v1/query
	// sorts either way.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the search wall-clock; 0 uses the server default.
	// Values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace returns the execution's span tree in the response (/v1/query:
	// "trace" field; /v1/stream: trailer line).
	Trace bool `json:"trace,omitempty"`
}

// decideRequest is the body of /v1/decide: one index bound over a named
// database, answered YES/NO by the engine's first-witness path.
type decideRequest struct {
	DB    string `json:"db"`
	Query string `json:"query"`
	Type  int    `json:"type"`
	// Index is "sup", "cnf" or "cvr".
	Index string `json:"index"`
	// K is the strict rational bound (index > K); empty means 0.
	K string `json:"k,omitempty"`
	// Workers partitions the first decision node's candidates across this
	// many goroutines sharing a first-witness cancellation (<=1 =
	// sequential).
	Workers   int   `json:"workers,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Epsilon/Delta, when both set, switch the decision to the sampling
	// ε–δ approximate path: true index values outside [k−ε, k+ε] are
	// decided correctly with probability at least 1−δ (YES verdicts are
	// exactly confirmed and never wrong), values inside the band escalate
	// to exact evaluation. Both must be in (0, 1).
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// MaxSamples caps the per-fraction sample budget before escalation
	// (0 derives it from epsilon and delta).
	MaxSamples int `json:"max_samples,omitempty"`
	// Trace returns the decision's span tree in the response.
	Trace bool `json:"trace,omitempty"`
}

// statsJSON reports the engine's search-effort counters for one request.
type statsJSON struct {
	Width           int `json:"width"`
	Nodes           int `json:"nodes"`
	CandidatesTried int `json:"candidates_tried"`
	BodiesReached   int `json:"bodies"`
	HeadsTried      int `json:"heads_tried"`
	HeadsSkipped    int `json:"heads_skipped,omitempty"`
	Answers         int `json:"answers"`
	PrunedEmpty     int `json:"pruned_empty,omitempty"`
	PrunedSupport   int `json:"pruned_support,omitempty"`
	SamplesDrawn    int `json:"samples_drawn,omitempty"`
	Escalated       int `json:"escalated,omitempty"`
}

func toStatsJSON(st *engine.Stats) *statsJSON {
	if st == nil {
		return nil
	}
	return &statsJSON{
		Width:           st.Width,
		Nodes:           st.Nodes,
		CandidatesTried: st.BodyCandidatesTried,
		BodiesReached:   st.BodiesReachedRoot,
		HeadsTried:      st.HeadsTried,
		HeadsSkipped:    st.HeadsSkipped,
		Answers:         st.Answers,
		PrunedEmpty:     st.BodiesPrunedEmpty,
		PrunedSupport:   st.BodiesPrunedSupport,
		SamplesDrawn:    st.SamplesDrawn,
		Escalated:       st.ApproxEscalated,
	}
}

// queryEnvelope is the /v1/query document after its answers array,
// {"answers":[...],"cache_hit":...}: wireBuf.queryDocument renders the
// answers by hand and the envelope through encoding/json. Answers are
// reported in the variable naming of the prepared-cache representative:
// α-equivalent queries share one Prepared, so a repeat of
// "R(A,C) <- P(A,B), Q(B,C)" after "R(X,Z) <- P(X,Y), Q(Y,Z)" renders its
// rules over X, Y, Z.
type queryEnvelope struct {
	CacheHit  bool            `json:"cache_hit"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Stats     *statsJSON      `json:"stats,omitempty"`
	Trace     []*obs.SpanTree `json:"trace,omitempty"`
}

// decideResponse is the /v1/decide verdict document.
type decideResponse struct {
	Yes bool `json:"yes"`
	// Method is "exact" (the first-witness path) or "approx" (the sampling
	// ε–δ path, when the request set epsilon/delta).
	Method    string          `json:"method"`
	Witness   string          `json:"witness,omitempty"`
	CacheHit  bool            `json:"cache_hit"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Stats     *statsJSON      `json:"stats,omitempty"`
	Trace     []*obs.SpanTree `json:"trace,omitempty"`
}

// streamTrailer is the final NDJSON line of every /v1/stream response: the
// in-band status of the search that produced the rows above it. A client
// that does not see a trailer line knows the stream was cut mid-flight.
type streamTrailer struct {
	Status  string          `json:"status"` // "ok", "deadline_exceeded", "canceled", "error"
	Answers int             `json:"answers"`
	Error   string          `json:"error,omitempty"`
	Trace   []*obs.SpanTree `json:"trace,omitempty"`
}

// resolveSearch validates a searchRequest into an executable (database,
// metaquery, options) triple. Errors carry the HTTP status to answer with.
func (s *Server) resolveSearch(req *searchRequest) (*database, *core.Metaquery, engine.Options, int, error) {
	var opt engine.Options
	d, ok := s.reg.get(req.DB)
	if !ok {
		return nil, nil, opt, http.StatusNotFound, fmt.Errorf("unknown database %q (have %v)", req.DB, s.reg.names())
	}
	mq, typ, status, err := parseQueryType(req.Query, req.Type)
	if err != nil {
		return nil, nil, opt, status, err
	}
	th, err := parseThresholds(req.MinSup, req.MinCnf, req.MinCvr)
	if err != nil {
		return nil, nil, opt, http.StatusBadRequest, err
	}
	if req.Limit < 0 {
		return nil, nil, opt, http.StatusBadRequest, fmt.Errorf("limit must be >= 0")
	}
	if req.Workers < 0 {
		return nil, nil, opt, http.StatusBadRequest, fmt.Errorf("workers must be >= 0")
	}
	opt = engine.Options{Type: typ, Thresholds: th, Limit: req.Limit, Workers: req.Workers}
	return d, mq, opt, http.StatusOK, nil
}

func parseQueryType(query string, typN int) (*core.Metaquery, core.InstType, int, error) {
	if query == "" {
		return nil, 0, http.StatusBadRequest, fmt.Errorf("query is required")
	}
	if typN < 0 || typN > 2 {
		return nil, 0, http.StatusBadRequest, fmt.Errorf("type must be 0, 1 or 2 (got %d)", typN)
	}
	mq, err := core.Parse(query)
	if err != nil {
		return nil, 0, http.StatusBadRequest, err
	}
	return mq, core.InstType(typN), http.StatusOK, nil
}

func parseThresholds(minSup, minCnf, minCvr string) (core.Thresholds, error) {
	var th core.Thresholds
	set := func(name, s string, k *rat.Rat, check *bool) error {
		if s == "" {
			return nil
		}
		r, err := rat.Parse(s)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		*k, *check = r, true
		return nil
	}
	if err := set("min_sup", minSup, &th.Sup, &th.CheckSup); err != nil {
		return th, err
	}
	if err := set("min_cnf", minCnf, &th.Cnf, &th.CheckCnf); err != nil {
		return th, err
	}
	if err := set("min_cvr", minCvr, &th.Cvr, &th.CheckCvr); err != nil {
		return th, err
	}
	return th, nil
}

// searchContext derives the request's search deadline: the client's
// timeout_ms clamped to the server maximum, or the server default when the
// client names none. It descends from the HTTP request context, so a
// client disconnect cancels the search either way.
func (s *Server) searchContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// handleQuery answers POST /v1/query: the full sorted answer set as one
// JSON document, through the same Prepared.FindRules path internal/diff
// verifies against the oracle.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	d, mq, opt, status, err := s.resolveSearch(&req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	tagDB(w, req.DB)
	prep, hit, err := s.prepared(d, mq, opt)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tr, r := requestTracer(r, req.Trace)
	ctx, cancel := s.searchContext(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	answers, st, err := prep.FindRulesStats(ctx)
	if err != nil {
		s.searchError(w, r, err)
		return
	}
	s.metrics.answersServed.Add(uint64(len(answers)))
	env := queryEnvelope{
		CacheHit:  hit,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
		Stats:     toStatsJSON(st),
		Trace:     traceOut(tr, req.Trace),
	}
	wb := wireBufs.Get().(*wireBuf)
	defer wireBufs.Put(wb)
	wb.queryDocument(answers, env)
	w.Header().Set("Content-Type", "application/json")
	w.Write(wb.out)
}

// handleDecide answers POST /v1/decide through the engine's first-witness
// path: only the queried index is evaluated and the search stops at the
// first admissible witness. With epsilon/delta set the decision runs the
// sampling ε–δ path instead, and the response reports "method": "approx"
// plus the samples-drawn and escalation counters.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	var req decideRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	d, ok := s.reg.get(req.DB)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown database %q (have %v)", req.DB, s.reg.names()))
		return
	}
	tagDB(w, req.DB)
	mq, typ, status, err := parseQueryType(req.Query, req.Type)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	var ix core.Index
	switch req.Index {
	case "sup":
		ix = core.Sup
	case "cnf":
		ix = core.Cnf
	case "cvr":
		ix = core.Cvr
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("index must be sup, cnf or cvr (got %q)", req.Index))
		return
	}
	k := rat.Zero
	if req.K != "" {
		if k, err = rat.Parse(req.K); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("k: %v", err))
			return
		}
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "workers must be >= 0")
		return
	}
	// epsilon/delta select the approximate path. They are part of the
	// engine Options and therefore of the prepared-cache key: exact and
	// approximate decisions over one query cache separate Prepared values.
	approx := engine.ApproxOptions{Epsilon: req.Epsilon, Delta: req.Delta, MaxSamples: req.MaxSamples}
	prep, hit, err := s.prepared(d, mq, engine.Options{Type: typ, Workers: req.Workers, Approx: approx})
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tr, r := requestTracer(r, req.Trace)
	ctx, cancel := s.searchContext(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	var (
		yes bool
		wit *core.Instantiation
		st  *engine.Stats
	)
	method := "exact"
	if approx.Enabled() {
		method = "approx"
		yes, wit, st, err = prep.DecideApproxStats(ctx, ix, k)
	} else {
		yes, wit, st, err = prep.DecideFirstStats(ctx, ix, k)
	}
	if err != nil {
		s.searchError(w, r, err)
		return
	}
	out := decideResponse{
		Yes:       yes,
		Method:    method,
		CacheHit:  hit,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
		Stats:     toStatsJSON(st),
		Trace:     traceOut(tr, req.Trace),
	}
	if yes && wit != nil {
		// Apply against the Prepared's own metaquery: under a cache hit it
		// is the α-equivalent representative the witness indices refer to.
		rule, err := wit.Apply(prep.Metaquery())
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("witness does not apply: %v", err))
			return
		}
		out.Witness = rule.String()
	}
	writeJSON(w, out)
}

// handleStream answers POST /v1/stream: one NDJSON answer row at a time in
// discovery order, flushed as produced, ending with a trailer status line.
// The search rides Prepared.Stream, so a client that disconnects (or a
// deadline that fires) cancels the remaining work promptly; whatever rows
// were already written stand, and the trailer (when the connection is
// still up) names why the stream ended early.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	d, mq, opt, status, err := s.resolveSearch(&req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	tagDB(w, req.DB)
	prep, _, err := s.prepared(d, mq, opt)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tr, r := requestTracer(r, req.Trace)
	ctx, cancel := s.searchContext(r, req.TimeoutMS)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	wb := wireBufs.Get().(*wireBuf)
	defer wireBufs.Put(wb)
	var st engine.Stats
	var streamErr error
	n := 0
	for a, err := range prep.StreamStats(ctx, &st) {
		if err != nil {
			streamErr = err
			break
		}
		wb.streamRow(&a)
		w.Write(wb.out)
		n++
		s.metrics.streamRows.Add(1)
		flush()
		if s.streamSent != nil {
			s.streamSent(n)
		}
	}
	trailer := streamTrailer{Status: "ok", Answers: n, Trace: traceOut(tr, req.Trace)}
	switch {
	case errors.Is(streamErr, context.DeadlineExceeded):
		trailer.Status = "deadline_exceeded"
		s.metrics.deadlineHits.Add(1)
		s.metrics.streamsCut.Add(1)
	case errors.Is(streamErr, context.Canceled):
		trailer.Status = "canceled"
		s.metrics.streamsCut.Add(1)
	case streamErr != nil:
		trailer.Status = "error"
		trailer.Error = streamErr.Error()
	}
	encode(w, trailer)
	flush()
	if s.streamDone != nil {
		s.streamDone(&st, streamErr)
	}
}

// searchError maps a failed search to its HTTP answer: deadline → 504
// (the server-side search budget ran out), client disconnect → nothing
// (nobody is listening), anything else → 500.
func (s *Server) searchError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.deadlineHits.Add(1)
		writeError(w, http.StatusGatewayTimeout, "search deadline exceeded; narrow the query or raise timeout_ms")
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// Client went away mid-search; the response writer is dead.
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleLoadDB answers POST /v1/db/{name}: load (or atomically replace)
// a named database from a server-side CSV directory or inline relations.
func (s *Server) handleLoadDB(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "database name is required")
		return
	}
	var req jsonDatabase
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	db, err := req.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.LoadDatabase(name, db)
	writeJSON(w, dbInfo{Name: name, Relations: db.NumRelations(), Tuples: db.Size()})
}

// jsonDelta is the wire form of PATCH /v1/db/{name}: batched per-relation
// tuple inserts and deletes, applied atomically through Engine.Apply.
type jsonDelta struct {
	Relations []jsonRelationDelta `json:"relations"`
}

// jsonRelationDelta is one relation's change. Deletes apply before inserts;
// arity is only needed when creating a relation without inserting into it.
type jsonRelationDelta struct {
	Name   string     `json:"name"`
	Arity  int        `json:"arity,omitempty"`
	Insert [][]string `json:"insert,omitempty"`
	Delete [][]string `json:"delete,omitempty"`
}

// deltaResponse reports what a PATCH did: the database's epoch after the
// delta and the effective change counts.
type deltaResponse struct {
	Name      string `json:"name"`
	Epoch     uint64 `json:"epoch"`
	Inserted  int    `json:"inserted"`
	Deleted   int    `json:"deleted"`
	Compacted int    `json:"compacted,omitempty"`
}

// handleApplyDB answers PATCH /v1/db/{name}: an incremental delta into the
// registered engine via Engine.Apply. Unlike POST (full replacement, which
// discards the prepared-metaquery cache), PATCH keeps the registry entry —
// and with it the warm prepared LRU: cached Prepared values re-bind to the
// new epoch on their next execution, carrying over whatever node-join cache
// entries the delta left valid. In-flight searches finish on the snapshot
// they started with.
func (s *Server) handleApplyDB(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, ok := s.reg.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown database %q (have %v)", name, s.reg.names()))
		return
	}
	var req jsonDelta
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Relations) == 0 {
		writeError(w, http.StatusBadRequest, "delta needs at least one relation")
		return
	}
	var delta engine.Delta
	for _, rd := range req.Relations {
		delta.Relations = append(delta.Relations, engine.RelationDelta{
			Name: rd.Name, Arity: rd.Arity, Insert: rd.Insert, Delete: rd.Delete,
		})
	}
	res, err := d.eng.Apply(r.Context(), delta)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.metrics.dbDeltas.Add(1)
	writeJSON(w, deltaResponse{
		Name: name, Epoch: res.Epoch,
		Inserted: res.Inserted, Deleted: res.Deleted, Compacted: res.Compacted,
	})
}

// dbInfo summarizes one registered database.
type dbInfo struct {
	Name      string `json:"name"`
	Relations int    `json:"relations"`
	Tuples    int    `json:"tuples"`
}

// handleListDB answers GET /v1/db with the registered database summaries.
func (s *Server) handleListDB(w http.ResponseWriter, r *http.Request) {
	names := s.reg.names()
	out := make([]dbInfo, 0, len(names))
	for _, name := range names {
		if d, ok := s.reg.get(name); ok {
			out = append(out, dbInfo{Name: name, Relations: d.eng.Database().NumRelations(), Tuples: d.eng.Database().Size()})
		}
	}
	writeJSON(w, out)
}
