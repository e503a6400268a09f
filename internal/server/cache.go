package server

import (
	"container/list"
	"fmt"
	"sync"

	"github.com/mqgo/metaquery/internal/core"
	"github.com/mqgo/metaquery/internal/engine"
)

// prepKey is the cache identity of a prepared metaquery: the
// variable-renaming-invariant canonical key of the query joined with every
// Options field that participates in preparation. α-equivalent requests
// with the same options map to one key and therefore one Prepared.
func prepKey(mq *core.Metaquery, opt engine.Options) string {
	th := opt.Thresholds
	a := opt.Approx
	return fmt.Sprintf("%s|t%d|s%v:%s|c%v:%s|v%v:%s|l%d|w%d|a%g:%g:%d:%d",
		mq.CanonicalKey(), opt.Type,
		th.CheckSup, th.Sup, th.CheckCnf, th.Cnf, th.CheckCvr, th.Cvr,
		opt.Limit, opt.Workers,
		a.Epsilon, a.Delta, a.MaxSamples, a.Seed)
}

// prepCache is a fixed-capacity LRU of Prepared metaqueries, one per
// database. A hit skips validation and hypertree decomposition entirely
// and, because the Prepared carries the cross-execution node-join cache,
// lets repeat queries reuse the joins earlier executions materialized.
// Safe for concurrent use.
type prepCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element

	hits, misses, evictions uint64
}

type prepEntry struct {
	key  string
	prep *engine.Prepared
}

func newPrepCache(capacity int) *prepCache {
	if capacity < 1 {
		capacity = 1
	}
	return &prepCache{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns the cached Prepared for key, marking it most recently used.
func (c *prepCache) get(key string) (*engine.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*prepEntry).prep, true
}

// add inserts p under key and returns the canonical cached instance: when
// a concurrent request already inserted one, the earlier winner is kept
// (its node-join cache may already be warm) and returned.
func (c *prepCache) add(key string, p *engine.Prepared) *engine.Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*prepEntry).prep
	}
	c.byKey[key] = c.ll.PushFront(&prepEntry{key: key, prep: p})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*prepEntry).key)
		c.evictions++
	}
	return p
}

// cacheStats is a point-in-time snapshot of the cache counters.
type cacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func (c *prepCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{Size: c.ll.Len(), Capacity: c.cap, Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
