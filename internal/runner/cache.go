package runner

import "sync"

// Cache is the shared memoization layer for engine runs: a two-level,
// single-flight cache of expensive intermediates keyed by an owner (in CVCP,
// the dataset a value is derived from) and a per-owner key (the kind of
// value plus its parameters, e.g. an OPTICS ordering for one MinPts, or the
// owner's pairwise-distance matrix).
//
// Concurrent Do calls for the same (owner, key) collapse into one
// computation: the first caller computes, everyone else blocks on it and
// shares the result. That is what makes a fold×parameter grid cheap — all
// folds of one parameter need the same dendrogram, and every parameter
// needs the same distance matrix, yet each is computed exactly once while
// its owner stays cached, regardless of the worker count.
//
// Owners are evicted in insertion order once more than maxOwners are
// resident: experiment harnesses walk datasets in sequence and never
// revisit old ones, so retaining a short window of recent owners bounds
// memory without a hit-rate cost.
type Cache struct {
	maxOwners int

	mu      sync.Mutex
	order   []any // insertion order of owners, for eviction
	entries map[any]map[any]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	val  any
	err  error
}

// NewCache returns a Cache retaining values for at most maxOwners distinct
// owners (minimum 1).
func NewCache(maxOwners int) *Cache {
	if maxOwners < 1 {
		maxOwners = 1
	}
	return &Cache{
		maxOwners: maxOwners,
		entries:   map[any]map[any]*cacheEntry{},
	}
}

// Do returns the cached value for (owner, key), computing it with compute on
// the first call. Errors are cached too: the engine's inputs are
// deterministic, so a failed computation would fail identically on retry.
// owner and key must be valid map keys.
func (c *Cache) Do(owner, key any, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	m, ok := c.entries[owner]
	if !ok {
		m = map[any]*cacheEntry{}
		c.entries[owner] = m
		c.order = append(c.order, owner)
		if len(c.order) > c.maxOwners {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, evict)
		}
	}
	e, ok := m[key]
	if !ok {
		e = &cacheEntry{}
		m[key] = e
		mCacheMisses.Inc()
	} else {
		mCacheHits.Inc()
	}
	c.mu.Unlock()

	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
}

// Flush drops every cached value. Tests use it to make compute counts
// predictable; production callers never need it.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order = nil
	c.entries = map[any]map[any]*cacheEntry{}
}

// Owners reports how many owners currently have resident values.
func (c *Cache) Owners() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}
