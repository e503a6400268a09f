package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/mqgo/metaquery/internal/gen"
	"github.com/mqgo/metaquery/internal/relation"
)

// mineDB rebuilds the database of mqperf's "mine" workload for one seed:
// two arity-3 and two arity-2 relations of 300 tuples over 1,500 constants,
// column 0 skewed at 0.5, renamed r0..r3 in the workload's interleaving.
func mineDB(seed int64) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	cfg := func(arity int) gen.DBConfig {
		return gen.DBConfig{Relations: 2, MinArity: arity, MaxArity: arity, MinTuples: 300, MaxTuples: 300,
			Domain: 1500, Skew: 0.5, SkewCols: []int{0}}
	}
	wide := cfg(3).Generate(rng)
	narrow := cfg(2).Generate(rng)
	db := relation.NewDatabase()
	for _, m := range []struct {
		src      *relation.Database
		from, to string
	}{{wide, "r0", "r0"}, {narrow, "r0", "r1"}, {wide, "r1", "r2"}, {narrow, "r1", "r3"}} {
		r := m.src.Relation(m.from)
		db.MustAddRelation(m.to, r.Arity())
		for _, t := range r.Tuples() {
			names := make([]string, len(t))
			for i, v := range t {
				names[i] = m.src.Dict().Name(v)
			}
			db.MustInsertNamed(m.to, names...)
		}
	}
	return db
}

// BenchmarkServeQuery drives the five distinct /v1/query shapes of mqperf's
// "mine" workload through Server.Handler in process, with a warm prepared
// cache: the HTTP layer's cost per search between the engine benchmarks and
// the end-to-end serving benchmark. answers/op is the answer count of one
// response.
func BenchmarkServeQuery(b *testing.B) {
	s := New(Config{})
	s.LoadDatabase("mine", mineDB(1))
	h := s.Handler()
	for _, bc := range []struct {
		name string
		req  searchRequest
	}{
		{"chain-t0", searchRequest{Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 0}},
		{"chain-t1", searchRequest{Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 1}},
		{"chain-t2", searchRequest{Query: "R(X,Z) <- P(X,Y), Q(Y,Z)", Type: 2, MinSup: "3/10"}},
		{"triangle-t1", searchRequest{Query: "R(X,Y) <- P(X,Y), Q(Y,Z), S(Z,X)", Type: 1}},
		{"star-t0", searchRequest{Query: "R(X,Y,Z,W) <- P(X,Y), Q(X,Z), S(X,W)", Type: 0, MinSup: "1/10"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.req.DB = "mine"
			body, err := json.Marshal(bc.req)
			if err != nil {
				b.Fatal(err)
			}
			serve := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				return rec
			}
			var resp queryResponse
			if err := json.Unmarshal(serve().Body.Bytes(), &resp); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			b.ReportMetric(float64(len(resp.Answers)), "answers/op")
		})
	}
}
