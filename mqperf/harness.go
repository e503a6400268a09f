package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"syscall"
	"time"

	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/server"
)

// harness is one booted server with the workload's databases loaded, plus
// the client side that drives it: pre-encoded request bodies, the expected
// results, and the PATCH sequence.
type harness struct {
	in     *inputs
	ref    *reference
	bodies *bodies
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	cl     *http.Client
	acked  int // PATCH batches the server acknowledged
}

// bodies are the JSON request bodies, encoded once so that the client's
// own encoding stays out of the measured window.
type bodies struct {
	dbs     map[string][]byte
	search  [2][][]byte // [traced][search]
	decide  [2][2][][]byte
	patchDB string
	script  [][]byte
}

func encodeBodies(in *inputs) (*bodies, error) {
	b := &bodies{dbs: map[string][]byte{}, patchDB: in.patchDB().name}
	dbs := []namedDB{in.main}
	if in.side != nil {
		dbs = append(dbs, *in.side)
	}
	for _, d := range dbs {
		blob, err := json.Marshal(map[string]any{"relations": d.rels})
		if err != nil {
			return nil, err
		}
		b.dbs[d.name] = blob
	}
	for traced := 0; traced < 2; traced++ {
		for _, s := range in.searches {
			blob, err := json.Marshal(struct {
				DB string `json:"db"`
				searchSpec
				Trace bool `json:"trace,omitempty"`
			}{in.main.name, s, traced == 1})
			if err != nil {
				return nil, err
			}
			b.search[traced] = append(b.search[traced], blob)
		}
		for approx := 0; approx < 2; approx++ {
			for _, d := range in.decisions {
				req := map[string]any{"db": in.main.name, "query": d.query, "type": d.typ, "index": d.index, "k": d.k}
				if approx == 1 {
					req["epsilon"], req["delta"] = d.eps, approxDelta
				} else if d.workers > 1 {
					req["workers"] = d.workers
				}
				if traced == 1 {
					req["trace"] = true
				}
				blob, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				b.decide[traced][approx] = append(b.decide[traced][approx], blob)
			}
		}
	}
	for _, d := range in.script {
		blob, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		b.script = append(b.script, blob)
	}
	return b, nil
}

// approxDelta is the δ of every approximate decision.
const approxDelta = 0.05

// boot starts a server on a loopback listener and loads the databases.
func boot(in *inputs, ref *reference, b *bodies) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		in: in, ref: ref, bodies: b,
		srv:    server.New(server.Config{}),
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		cl:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() {
		defer close(h.served)
		h.hs.Serve(ln)
	}()
	for name, blob := range b.dbs {
		if _, err := h.do(context.Background(), "POST", "/v1/db/"+name, blob); err != nil {
			h.close()
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
	}
	return h, nil
}

// close stops the server and waits for its serve loop to return.
func (h *harness) close() {
	h.hs.Close()
	<-h.served
	h.cl.CloseIdleConnections()
}

// do sends one request and returns the body of a 200 answer.
func (h *harness) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	resp, err := h.send(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (h *harness) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return h.cl.Do(req)
}

// answerJSON is one answer as the server renders it (a /v1/query element
// or a /v1/stream row).
type answerJSON struct {
	Rule string `json:"rule"`
	Sup  string `json:"sup"`
	Cnf  string `json:"cnf"`
	Cvr  string `json:"cvr"`
}

// statsJSON is the response's search-effort counters.
type statsJSON struct {
	Candidates    int `json:"candidates_tried"`
	Bodies        int `json:"bodies"`
	HeadsTried    int `json:"heads_tried"`
	HeadsSkipped  int `json:"heads_skipped"`
	Answers       int `json:"answers"`
	PrunedSupport int `json:"pruned_support"`
	SamplesDrawn  int `json:"samples_drawn"`
	Escalated     int `json:"escalated"`
}

func (d *statsJSON) add(s *statsJSON) {
	d.Candidates += s.Candidates
	d.Bodies += s.Bodies
	d.HeadsTried += s.HeadsTried
	d.HeadsSkipped += s.HeadsSkipped
	d.Answers += s.Answers
	d.PrunedSupport += s.PrunedSupport
	d.SamplesDrawn += s.SamplesDrawn
	d.Escalated += s.Escalated
}

type queryResp struct {
	Answers   []answerJSON    `json:"answers"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Stats     *statsJSON      `json:"stats"`
	Trace     []*obs.SpanTree `json:"trace"`
}

type decideResp struct {
	Yes       bool            `json:"yes"`
	Method    string          `json:"method"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Stats     *statsJSON      `json:"stats"`
	Trace     []*obs.SpanTree `json:"trace"`
}

// streamLine is either an answer row or the trailer (Status set).
type streamLine struct {
	answerJSON
	Status  string          `json:"status"`
	Answers int             `json:"answers"`
	Error   string          `json:"error"`
	Trace   []*obs.SpanTree `json:"trace"`
}

// digest is an order-independent digest of an answer multiset: the row
// count and the wrapping sum of each row's FNV-64a hash over its rule and
// index strings.
type digest struct {
	N   int
	Sum uint64
}

func (d *digest) add(a answerJSON) {
	f := fnv.New64a()
	io.WriteString(f, a.Rule)
	for _, s := range []string{a.Sup, a.Cnf, a.Cvr} {
		f.Write([]byte{0})
		io.WriteString(f, s)
	}
	d.N++
	d.Sum += f.Sum64()
}

// result is one completed request as the client saw it.
type result struct {
	op       int
	ms       float64 // wall-clock latency to the last byte
	cpu      float64 // process CPU time until the last byte, ms
	firstMS  float64 // /v1/stream: wall-clock latency to the first NDJSON line
	firstCPU float64 // /v1/stream: process CPU time until the first NDJSON line, ms
	bytes    int
	answers  int
	elapsed  float64 // server-reported elapsed_ms (query, decide, approx)
	stats    *statsJSON
	trace    []*obs.SpanTree
	start    time.Time
	cpu0     float64 // process CPU time at the start, ms
}

func newResult(op int) result {
	return result{op: op, start: time.Now(), cpu0: cpuMS()}
}

func (r *result) stop() {
	r.ms = msSince(r.start)
	r.cpu = cpuMS() - r.cpu0
}

// cpuMS is the CPU time the process has used so far, in ms. With one
// closed-loop client in the process, the CPU time spent during a request
// is that request's cost: client, server, engine and runtime (GC and
// parallel workers included). Unlike wall-clock time it leaves out the
// time the hypervisor gives this machine's CPUs to other guests (steal),
// which on a shared host moved one run's wall-clock tails two- to
// three-fold.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

var errMismatch = errors.New("result mismatch")

// query sends searches[i] to /v1/query and checks its answers.
func (h *harness) query(ctx context.Context, i int, traced bool) (result, error) {
	r := newResult(opQuery)
	body, err := h.do(ctx, "POST", "/v1/query", h.bodies.search[b2i(traced)][i])
	r.stop()
	if err != nil {
		return r, err
	}
	var resp queryResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return r, err
	}
	var d digest
	for _, a := range resp.Answers {
		d.add(a)
	}
	r.bytes, r.answers, r.elapsed, r.stats, r.trace = len(body), d.N, resp.ElapsedMS, resp.Stats, resp.Trace
	if want := h.ref.search[i]; want != nil && d != *want {
		return r, fmt.Errorf("%w: /v1/query %q: %d answers, want %d (or different rows)", errMismatch, h.in.searches[i].Query, d.N, want.N)
	}
	return r, checkTrace(r.trace, traced)
}

// stream sends searches[i] to /v1/stream and checks that its rows form the
// expected multiset and end with an "ok" trailer.
func (h *harness) stream(ctx context.Context, i int, traced bool) (result, error) {
	r := newResult(opStream)
	resp, err := h.send(ctx, "POST", "/v1/stream", h.bodies.search[b2i(traced)][i])
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return r, fmt.Errorf("/v1/stream: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var d digest
	var trailer *streamLine
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && r.firstMS == 0 {
			r.firstMS, r.firstCPU = msSince(r.start), cpuMS()-r.cpu0
		}
		r.bytes += len(line)
		if len(bytes.TrimSpace(line)) > 0 {
			if trailer != nil {
				return r, fmt.Errorf("%w: /v1/stream: row after the trailer", errMismatch)
			}
			var l streamLine
			if err := json.Unmarshal(line, &l); err != nil {
				return r, err
			}
			if l.Status != "" {
				trailer = &l
			} else {
				d.add(l.answerJSON)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return r, err
		}
	}
	r.stop()
	r.answers = d.N
	switch {
	case trailer == nil:
		return r, fmt.Errorf("%w: /v1/stream %q: no trailer", errMismatch, h.in.searches[i].Query)
	case trailer.Status != "ok" || trailer.Answers != d.N:
		return r, fmt.Errorf("%w: /v1/stream %q: trailer %q with %d answers after %d rows", errMismatch, h.in.searches[i].Query, trailer.Status, trailer.Answers, d.N)
	}
	r.trace = trailer.Trace
	if want := h.ref.search[i]; want != nil && d != *want {
		return r, fmt.Errorf("%w: /v1/stream %q: %d rows, want %d (or different rows)", errMismatch, h.in.searches[i].Query, d.N, want.N)
	}
	return r, checkTrace(r.trace, traced)
}

// decide sends decisions[i], exact or approximate, and checks the verdict
// against the direct exact one.
func (h *harness) decide(ctx context.Context, i int, approx, traced bool) (result, error) {
	r := newResult(opDecide)
	method := "exact"
	if approx {
		r.op, method = opApprox, "approx"
	}
	body, err := h.do(ctx, "POST", "/v1/decide", h.bodies.decide[b2i(traced)][b2i(approx)][i])
	r.stop()
	if err != nil {
		return r, err
	}
	var resp decideResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return r, err
	}
	r.bytes, r.elapsed, r.stats, r.trace = len(body), resp.ElapsedMS, resp.Stats, resp.Trace
	d := h.in.decisions[i]
	if resp.Method != method {
		return r, fmt.Errorf("%w: /v1/decide %q: method %q, want %q", errMismatch, d.query, resp.Method, method)
	}
	if want := h.ref.verdict[i]; want != nil && resp.Yes != *want {
		return r, fmt.Errorf("%w: /v1/decide %q %s > %s (%s): %v, want %v", errMismatch, d.query, d.index, d.k, method, resp.Yes, *want)
	}
	return r, checkTrace(r.trace, traced)
}

// apply sends the next batch of the PATCH sequence.
func (h *harness) apply(ctx context.Context) (result, error) {
	r := newResult(opPatch)
	_, err := h.do(ctx, "PATCH", "/v1/db/"+h.bodies.patchDB, h.bodies.script[h.acked%len(h.bodies.script)])
	r.stop()
	if err == nil {
		h.acked++
	}
	return r, err
}

// checkTrace rejects a traced response without a trace and any trace that
// reached the server tracer's span cap: the response does not report
// dropped spans, so a tree at the cap may be missing some.
func checkTrace(trees []*obs.SpanTree, traced bool) error {
	if !traced {
		return nil
	}
	if len(trees) == 0 {
		return fmt.Errorf("%w: traced request returned no trace", errMismatch)
	}
	if n := countSpans(trees); n >= obs.DefaultMaxSpans {
		return fmt.Errorf("%w: trace truncated at %d spans", errMismatch, n)
	}
	return nil
}

func countSpans(trees []*obs.SpanTree) int {
	n := 0
	for _, t := range trees {
		n += 1 + countSpans(t.Children)
	}
	return n
}

// run sends one request of class op, choosing its index round-robin.
func (h *harness) run(ctx context.Context, op, i int, traced bool) (result, error) {
	switch op {
	case opQuery:
		return h.query(ctx, i%len(h.in.searches), traced)
	case opStream:
		return h.stream(ctx, i%len(h.in.searches), traced)
	case opDecide, opApprox:
		return h.decide(ctx, i%len(h.in.decisions), op == opApprox, traced)
	default:
		return h.apply(ctx)
	}
}

// warm sends every distinct request once, checked.
func (h *harness) warm(ctx context.Context) error {
	for _, q := range h.in.distinct() {
		if _, err := h.run(ctx, q[0], q[1], false); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// finishCycle sends the rest of the PATCH cycle after the window, so that
// every run ends with its databases in their loaded state: the retained
// heap is then measured at the same point of the cycle on every run, and
// the final check has a known answer.
func (h *harness) finishCycle(ctx context.Context) error {
	for h.acked%len(h.bodies.script) != 0 {
		if _, err := h.apply(ctx); err != nil {
			return err
		}
	}
	return nil
}

// finalCheck sends every search and decision once more, after the cycle
// is finished, and checks them against ref: answers computed from scratch
// by a fresh Engine over the loaded database. On churn this compares the
// server's incrementally maintained engine, after every cycle of deltas
// the run applied, with a from-scratch build. It returns the requests sent
// and how many failed.
func (h *harness) finalCheck(ctx context.Context, ref *reference) (int, int) {
	h.ref = ref
	var t tally
	for _, q := range h.in.distinct() {
		t.record(h.run(ctx, q[0], q[1], false))
	}
	if t.firstErr != nil {
		fmt.Printf("# final check: %v\n", t.firstErr)
	}
	return t.totalAttempted(), t.totalFailed()
}
