package runner

import (
	"math"
	"sync"
)

// CellStore is the persistence seam of ScoreCache: a durable map from
// content-addressed cell keys to IEEE-754 score bit patterns. The store
// package adapts its record stores to this interface; scores travel as
// uint64 bits (never formatted floats) so a cached score is bit-identical
// to the computation it replaced. Implementations must be safe for
// concurrent use: ScoreCache calls GetCell and PutCell from every engine
// worker at once.
type CellStore interface {
	// GetCell returns the stored score bits for key, reporting whether the
	// key was present.
	GetCell(key string) (bits uint64, ok bool, err error)
	// PutCell stores the score bits for key. Keys are content-addressed, so
	// overwriting an existing key with different bits never happens in a
	// correct system; last-write-wins is fine.
	PutCell(key string, bits uint64) error
}

// ScoreCache is the two-tier cell-result cache: an in-memory single-flight
// layer backed by an optional persistent CellStore. Lookups try memory,
// then the store; misses compute and write back to both tiers. A failing
// store never fails a lookup — reads fall through to compute and write
// failures degrade the cache to memory-only for that cell (the score is
// recomputed next time instead of reused).
type ScoreCache struct {
	store CellStore // nil means memory-only

	maxEntries int
	mu         sync.Mutex
	order      []string // insertion order, for eviction
	entries    map[string]*scoreEntry
}

type scoreEntry struct {
	once sync.Once
	val  float64
	err  error
}

// NewScoreCache returns a ScoreCache over the given store (nil for
// memory-only) retaining at most maxEntries in-memory scores (minimum 1;
// the persistent tier is unbounded).
func NewScoreCache(store CellStore, maxEntries int) *ScoreCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &ScoreCache{store: store, maxEntries: maxEntries, entries: map[string]*scoreEntry{}}
}

// Do returns the score for the content-addressed cell key, computing it
// with compute on a full miss. The reused result reports whether the score
// came from either cache tier (or an in-flight computation of the same
// key) rather than this call's own compute — re-selection jobs sum it into
// their reused-cell counters. Errors are not cached or persisted: a failed
// cell computation is retried on the next lookup.
func (c *ScoreCache) Do(key string, compute func() (float64, error)) (score float64, reused bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &scoreEntry{}
		c.entries[key] = e
		c.order = append(c.order, key)
		if len(c.order) > c.maxEntries {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, evict)
		}
	}
	c.mu.Unlock()

	computed := false
	e.once.Do(func() {
		if c.store != nil {
			if bits, found, gerr := c.store.GetCell(key); gerr == nil && found {
				e.val = math.Float64frombits(bits)
				return
			}
		}
		mCellCacheMisses.Inc()
		computed = true
		v, cerr := compute()
		if cerr != nil {
			e.err = cerr
			return
		}
		e.val = v
		if c.store != nil {
			if perr := c.store.PutCell(key, math.Float64bits(v)); perr != nil {
				// Degrade, don't fail: the job keeps its computed score and
				// the next process recomputes this cell.
				mCellCacheWriteFailures.Inc()
			} else {
				mCellCacheWrites.Inc()
			}
		}
	})
	if e.err != nil {
		// Drop the failed entry so a later lookup retries the computation.
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
			for i, k := range c.order {
				if k == key {
					c.order = append(c.order[:i], c.order[i+1:]...)
					break
				}
			}
		}
		c.mu.Unlock()
		return 0, false, e.err
	}
	if !computed {
		mCellCacheHits.Inc()
	}
	return e.val, !computed, nil
}

// Len reports how many scores are resident in the memory tier.
func (c *ScoreCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
