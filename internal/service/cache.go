// Package service is the long-running solve service of the repository: a
// bounded job queue feeding the Rasengan pipeline, a content-addressed
// result cache, and an HTTP/JSON API (see Server) that cmd/rasengan-serve
// exposes. Requests are keyed by the canonical problem-spec hash plus the
// canonical solver-config fingerprint, and results are deterministic
// byte-for-byte — a cache hit returns exactly the bytes a fresh solve
// would produce.
//
// # Canonicalization invariant
//
// Two requests share a cache key if and only if they are canonically
// identical. Spelling never matters: JSON object-key order, whitespace,
// and config defaults written out versus omitted all normalize away
// (specs via problems.Spec.Canonical, which re-serializes inline
// instances through FromJSON→ToJSON; configs via
// core.CanonicalOptionsJSON, which applies defaults before
// fingerprinting). Provenance, however, does matter: a generator
// reference {family,scale,case} and the inline serialization of the very
// instance it generates are distinct keys by design — canonicalization
// does not expand generators. internal/verify exercises both directions
// of this invariant (see canonical_test.go and the verify package's
// spec_canonical_hash checks), and the cache-replay contract — a hit
// returns exactly the bytes a fresh solve would produce — is what the
// verify package's determinism_repeat metamorphic check enforces.
package service

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity, content-addressed LRU over marshaled
// result payloads. Keys are "<spec-hash>/<config-fingerprint>" strings;
// values are immutable byte slices served verbatim to clients (callers
// must not mutate them after Put). Each entry also records the variable
// count of its problem, so that a hit can apply the server's width limit
// without building the problem.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element

	hits, misses, evictions uint64
}

type lruEntry struct {
	key   string
	value []byte
	vars  int // variable count of the problem; 0 until known
}

// newLRUCache returns a cache holding at most capacity entries;
// capacity < 1 disables caching (every lookup misses, Put is a no-op).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		entries:  map[string]*list.Element{},
	}
}

// Get returns the cached payload, the variable count recorded for it
// (0 when not yet known) and whether it was present, promoting the entry
// to most-recently-used on a hit.
func (c *lruCache) Get(key string) (value []byte, vars int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*lruEntry)
	return e.value, e.vars, true
}

// Put inserts or refreshes an entry, evicting the least recently used
// entry when over capacity. vars is the variable count of the entry's
// problem, or 0 when the caller does not know it.
func (c *lruCache) Put(key string, value []byte, vars int) {
	if c.capacity < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*lruEntry)
		e.value, e.vars = value, vars
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, value: value, vars: vars})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
		c.evictions++
	}
}

// SetVars records the variable count of a resident entry's problem.
func (c *lruCache) SetVars(key string, vars int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).vars = vars
	}
}

// Len returns the number of resident entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *lruCache) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
