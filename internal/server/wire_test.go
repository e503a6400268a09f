package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
	"github.com/mqgo/metaquery/internal/obs"
	"github.com/mqgo/metaquery/internal/rat"
	"github.com/mqgo/metaquery/internal/relation"
)

// answerJSON is one answer on the wire: the schema the handlers render by
// hand and the struct the wire checks encode through encoding/json.
type answerJSON struct {
	Rule string `json:"rule"`
	Sup  string `json:"sup"`
	Cnf  string `json:"cnf"`
	Cvr  string `json:"cvr"`
}

// queryResponse is the /v1/query document as one struct, as encoding/json
// encoded it whole before answers were rendered by hand.
type queryResponse struct {
	Answers   []answerJSON    `json:"answers"`
	CacheHit  bool            `json:"cache_hit"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Stats     *statsJSON      `json:"stats,omitempty"`
	Trace     []*obs.SpanTree `json:"trace,omitempty"`
}

// encodedAnswer is an answer as encoding/json renders its answerJSON.
func encodedAnswer(a core.Answer) []byte {
	var buf bytes.Buffer
	encode(&buf, answerJSON{Rule: a.Rule.String(), Sup: a.Sup.String(), Cnf: a.Cnf.String(), Cvr: a.Cvr.String()})
	return buf.Bytes()
}

// checkQueryWire checks a /v1/query body byte for byte against
// encoding/json's encoding of want, with the envelope's run-dependent
// fields (elapsed time, stats, trace) taken from the body itself.
func checkQueryWire(t *testing.T, body []byte, want []core.Answer) {
	t.Helper()
	var got queryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal query body: %v", err)
	}
	exp := got
	exp.Answers = make([]answerJSON, len(want))
	for i, a := range want {
		exp.Answers[i] = answerJSON{Rule: a.Rule.String(), Sup: a.Sup.String(), Cnf: a.Cnf.String(), Cvr: a.Cvr.String()}
	}
	var buf bytes.Buffer
	encode(&buf, exp)
	if !bytes.Equal(buf.Bytes(), body) {
		t.Fatalf("query body differs from encoding/json:\n  served  %q\n  encoder %q", body, buf.Bytes())
	}
}

// checkStreamWire checks a /v1/stream body byte for byte: its rows, in
// any order, are encoding/json's lines for want, and its trailer is
// encoding/json's line for the trailer it decodes to.
func checkStreamWire(t *testing.T, body []byte, want []core.Answer) {
	t.Helper()
	lines := bytes.SplitAfter(body, []byte("\n"))
	if len(lines) < 2 || len(lines[len(lines)-1]) != 0 {
		t.Fatalf("stream body is not newline-terminated lines: %q", body)
	}
	rows, trailer := lines[:len(lines)-2], lines[len(lines)-2]
	exp := make([][]byte, len(want))
	for i, a := range want {
		exp[i] = encodedAnswer(a)
	}
	slices.SortFunc(rows, bytes.Compare)
	slices.SortFunc(exp, bytes.Compare)
	if len(rows) != len(exp) {
		t.Fatalf("stream carried %d rows, want %d", len(rows), len(exp))
	}
	for i := range rows {
		if !bytes.Equal(rows[i], exp[i]) {
			t.Fatalf("stream row differs from encoding/json:\n  served  %q\n  encoder %q", rows[i], exp[i])
		}
	}
	var tr streamTrailer
	if err := json.Unmarshal(trailer, &tr); err != nil {
		t.Fatalf("unmarshal trailer: %v", err)
	}
	var buf bytes.Buffer
	encode(&buf, tr)
	if !bytes.Equal(buf.Bytes(), trailer) {
		t.Fatalf("trailer differs from encoding/json:\n  served  %q\n  encoder %q", trailer, buf.Bytes())
	}
}

// TestWireEscapingMatchesEncoder serves rules over relation names that
// need every kind of JSON escaping — quotes, backslashes, control bytes,
// U+2028/U+2029, invalid UTF-8 and the HTML characters encoding/json
// leaves alone with SetEscapeHTML(false) — through /v1/query and
// /v1/stream, sequential and sharded, and checks both bodies byte for byte.
func TestWireEscapingMatchesEncoder(t *testing.T) {
	db := relation.NewDatabase()
	for _, name := range []string{"a\"b", "c\\d", "e\u2028f\u2029", "g\x01\b\f\n\r\t\x1fh", "i\xffj\xc3", "k<&>l\x7f", "m\ufffdn"} {
		db.MustAddRelation(name, 2)
		db.MustInsertNamed(name, "x", "y")
		db.MustInsertNamed(name, "y", "z")
	}
	s, ts := newTestServer(t, Config{})
	s.LoadDatabase("odd", db)
	const query = `R(X,Z) <- P(X,Y), Q(Y,"y")`
	mq, err := core.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := engine.NewEngine(db).Prepare(mq, engine.Options{Type: core.Type1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := prep.FindRules(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no answers to render")
	}
	for _, workers := range []int{0, 2} {
		req := searchRequest{DB: "odd", Query: query, Type: 1, Workers: workers, Trace: true}
		code, body := postJSON(t, ts.URL+"/v1/query", req)
		if code != http.StatusOK {
			t.Fatalf("query status %d: %s", code, body)
		}
		checkQueryWire(t, body, want)
		code, body = postJSON(t, ts.URL+"/v1/stream", req)
		if code != http.StatusOK {
			t.Fatalf("stream status %d: %s", code, body)
		}
		checkStreamWire(t, body, want)
	}
}

// FuzzAnswerJSON checks the hand-rendered answer row against
// encoding/json's encoding of answerJSON (SetEscapeHTML(false), without
// the encoder's trailing newline) over arbitrary relation-name and
// constant bytes and arbitrary index values.
func FuzzAnswerJSON(f *testing.F) {
	f.Add("r", "c", uint64(1), uint64(2), uint64(0), uint64(0), uint64(3), uint64(3))
	f.Add(`a"b`, `c\d`, uint64(7), uint64(9), uint64(1), uint64(1), uint64(1<<62), uint64(3))
	f.Add("\x00\x01\b\f\n\r\t\x1f\x7f", "<&>", uint64(0), uint64(1), uint64(5), uint64(0), uint64(2), uint64(4))
	f.Add("\u2028", "\u2029x", uint64(1), uint64(1), uint64(1), uint64(1), uint64(1), uint64(1))
	f.Add("\xff\xfe", "\xc3(\xe2\x82", uint64(3), uint64(6), uint64(9), uint64(12), uint64(1), uint64(2))
	f.Add("\ufffd", "\xed\xa0\x80", uint64(1<<63), uint64(1<<63), uint64(0), uint64(1), uint64(2), uint64(1))
	f.Fuzz(func(t *testing.T, rel, cn string, sn, sd, cnum, cden, vn, vd uint64) {
		if rel == "" || cn == "" {
			t.Skip()
		}
		mk := func(n, d uint64) rat.Rat {
			den := int64(d >> 1)
			if den == 0 {
				den = 1
			}
			return rat.New(int64(n>>1), den)
		}
		a := core.Answer{
			Rule: core.Rule{
				Head: relation.Atom{Pred: rel, Terms: []relation.Term{relation.V("X"), relation.CN(cn)}},
				Body: []relation.Atom{
					{Pred: cn, Terms: []relation.Term{relation.CN(rel), relation.V("Y")}},
					{Pred: rel + cn, Terms: []relation.Term{relation.V("X"), relation.V("Y")}},
				},
			},
			Sup: mk(sn, sd), Cnf: mk(cnum, cden), Cvr: mk(vn, vd),
		}
		var wb wireBuf
		wb.appendAnswer(&a)
		want := bytes.TrimSuffix(encodedAnswer(a), []byte("\n"))
		if !bytes.Equal(wb.out, want) {
			t.Fatalf("appendAnswer:\n  got  %q\n  want %q", wb.out, want)
		}
	})
}
