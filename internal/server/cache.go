package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"regiongrow"
)

// resultCache is a fixed-capacity LRU over completed segmentations and
// their region statistics, keyed by regiongrow.CacheKey — (image content
// hash, canonicalized config, engine kind). Caching full results is sound
// precisely because every engine is deterministic: equal keys imply
// byte-identical output, so a cached answer can be served verbatim.
// Cached values are shared across requests and must be treated as
// immutable.
type resultCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	byKey  map[string]*list.Element
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key string
	ans *answer
}

// answer is one completed segmentation together with its region
// statistics, which the pool worker computes once, right after the
// segmentation, so that no reply recomputes them. It is what the cache
// stores and what a finished job record carries; both halves are shared
// and read-only.
type answer struct {
	seg     *regiongrow.Segmentation
	regions []regiongrow.RegionStat
}

// newResultCache returns an LRU holding up to capacity entries. A
// non-positive capacity disables caching: Get always misses and Put is a
// no-op.
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// Get returns the cached answer for key, marking it most recently used,
// and records a hit or miss.
func (c *resultCache) Get(key string) (*answer, bool) {
	if c.cap <= 0 {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).ans, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put inserts (or refreshes) key, evicting the least recently used entry
// when the cache is full.
func (c *resultCache) Put(key string, ans *answer) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).ans = ans
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, ans: ans})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// Len reports the current entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits and Misses report the lookup counters.
func (c *resultCache) Hits() int64   { return c.hits.Load() }
func (c *resultCache) Misses() int64 { return c.misses.Load() }
