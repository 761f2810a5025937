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

// ScoreCache is the cell-result cache: it reads through its CellStore.
// A lookup gets the key from the store and, on a miss, computes the score
// and puts it. A failing store never fails a lookup: a failed get
// computes, and a failed put keeps the computed score, which the next
// lookup computes again instead of reusing.
type ScoreCache struct {
	store CellStore
}

// NewScoreCache returns a ScoreCache over the given store. A nil store
// means an in-memory one that keeps the maxEntries (minimum 1) most
// recently added scores; maxEntries bounds nothing else.
func NewScoreCache(store CellStore, maxEntries int) *ScoreCache {
	if store == nil {
		store = newMemCellStore(maxEntries)
	}
	return &ScoreCache{store: store}
}

// Do returns the score for the content-addressed cell key, computing it
// with compute when the store does not hold it. The reused result reports
// whether the score came from the store rather than this call's compute —
// re-selection jobs sum it into their reused-cell counters. Errors are not
// stored: a failed cell computation is retried on the next lookup.
func (c *ScoreCache) Do(key string, compute func() (float64, error)) (score float64, reused bool, err error) {
	if bits, found, gerr := c.store.GetCell(key); gerr == nil && found {
		mCellCacheHits.Inc()
		return math.Float64frombits(bits), true, nil
	}
	mCellCacheMisses.Inc()
	v, err := compute()
	if err != nil {
		return 0, false, err
	}
	if perr := c.store.PutCell(key, math.Float64bits(v)); perr != nil {
		// Degrade, don't fail: the job keeps its computed score and the
		// next lookup recomputes this cell.
		mCellCacheWriteFailures.Inc()
	} else {
		mCellCacheWrites.Inc()
	}
	return v, false, nil
}

// memCellStore is the CellStore of a ScoreCache built without one: a map
// that evicts its oldest key once it holds more than max.
type memCellStore struct {
	max   int
	mu    sync.Mutex
	order []string // insertion order, for eviction
	bits  map[string]uint64
}

func newMemCellStore(max int) *memCellStore {
	if max < 1 {
		max = 1
	}
	return &memCellStore{max: max, bits: map[string]uint64{}}
}

func (s *memCellStore) GetCell(key string) (uint64, bool, error) {
	s.mu.Lock()
	bits, ok := s.bits[key]
	s.mu.Unlock()
	return bits, ok, nil
}

func (s *memCellStore) PutCell(key string, bits uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bits[key]; !ok {
		s.order = append(s.order, key)
		if len(s.order) > s.max {
			delete(s.bits, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.bits[key] = bits
	return nil
}
