package runner

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// mapCellStore is an in-memory CellStore with switchable failure modes.
type mapCellStore struct {
	mu      sync.Mutex
	m       map[string]uint64
	failPut bool
	failGet bool
	puts    int
	gets    int
}

func newMapCellStore() *mapCellStore { return &mapCellStore{m: map[string]uint64{}} }

func (s *mapCellStore) GetCell(key string) (uint64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	if s.failGet {
		return 0, false, errors.New("get failed")
	}
	bits, ok := s.m[key]
	return bits, ok, nil
}

func (s *mapCellStore) PutCell(key string, bits uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.failPut {
		return errors.New("put failed")
	}
	s.m[key] = bits
	return nil
}

// TestScoreCacheTiers is the read-through contract: a miss computes and
// puts the score, and a later lookup, through this cache or a fresh one
// over the same store, reuses the stored bits.
func TestScoreCacheTiers(t *testing.T) {
	st := newMapCellStore()
	c := NewScoreCache(st, 64)
	calls := 0
	compute := func() (float64, error) { calls++; return 1.25, nil }

	v, reused, err := c.Do("k1", compute)
	if err != nil || v != 1.25 || reused || calls != 1 {
		t.Fatalf("first lookup: v=%v reused=%v calls=%d err=%v", v, reused, calls, err)
	}
	if st.gets != 1 || st.puts != 1 {
		t.Fatalf("first lookup: %d gets and %d puts, want 1 and 1", st.gets, st.puts)
	}
	// Store hit through the same cache: read, not computed or put again.
	v, reused, err = c.Do("k1", compute)
	if err != nil || v != 1.25 || !reused || calls != 1 {
		t.Fatalf("store hit: v=%v reused=%v calls=%d err=%v", v, reused, calls, err)
	}
	if st.gets != 2 || st.puts != 1 {
		t.Fatalf("store hit: %d gets and %d puts, want 2 and 1", st.gets, st.puts)
	}
	// Store hit in a fresh process (new ScoreCache, same store).
	c2 := NewScoreCache(st, 64)
	v, reused, err = c2.Do("k1", func() (float64, error) { t.Fatal("computed despite store hit"); return 0, nil })
	if err != nil || v != 1.25 || !reused {
		t.Fatalf("fresh cache: v=%v reused=%v err=%v", v, reused, err)
	}
	if bits := st.m["k1"]; bits != math.Float64bits(1.25) {
		t.Fatalf("stored bits %x", bits)
	}
}

// TestScoreCachePutFailureDegrades is the degradation contract: a failing
// put keeps the computed score and returns no error; the score is simply
// not reused (the next lookup recomputes it).
func TestScoreCachePutFailureDegrades(t *testing.T) {
	st := newMapCellStore()
	st.failPut = true
	c := NewScoreCache(st, 64)
	v, reused, err := c.Do("k", func() (float64, error) { return 2.5, nil })
	if err != nil || v != 2.5 || reused {
		t.Fatalf("put failure leaked: v=%v reused=%v err=%v", v, reused, err)
	}
	if len(st.m) != 0 {
		t.Fatal("failed put stored a value")
	}
	// The next lookup recomputes, and reports the score as computed.
	calls := 0
	v, reused, err = c.Do("k", func() (float64, error) { calls++; return 2.5, nil })
	if err != nil || v != 2.5 || reused || calls != 1 {
		t.Fatalf("lookup after put failure: v=%v reused=%v calls=%d err=%v", v, reused, calls, err)
	}
	// Once the store takes writes again, the score is reused.
	st.failPut = false
	if _, _, err := c.Do("k", func() (float64, error) { return 2.5, nil }); err != nil {
		t.Fatal(err)
	}
	if _, reused, err := c.Do("k", func() (float64, error) { t.Fatal("recomputed a stored score"); return 0, nil }); err != nil || !reused {
		t.Fatalf("lookup after a good put: reused=%v err=%v", reused, err)
	}
}

// A failing get computes the score and puts it, as a miss does.
func TestScoreCacheGetFailureComputes(t *testing.T) {
	st := newMapCellStore()
	st.m["k"] = math.Float64bits(9)
	st.failGet = true
	c := NewScoreCache(st, 64)
	v, reused, err := c.Do("k", func() (float64, error) { return 3, nil })
	if err != nil || v != 3 || reused {
		t.Fatalf("get failure: v=%v reused=%v err=%v", v, reused, err)
	}
	if st.m["k"] != math.Float64bits(3) {
		t.Fatalf("stored bits %x after a failed get, want the computed score's", st.m["k"])
	}
}

func TestScoreCacheErrorRetries(t *testing.T) {
	c := NewScoreCache(nil, 64)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	// Errors are not cached: the next lookup recomputes.
	v, reused, err := c.Do("k", func() (float64, error) { return 7, nil })
	if err != nil || v != 7 || reused {
		t.Fatalf("retry after error: v=%v reused=%v err=%v", v, reused, err)
	}
}

// Without a store, the cache keeps its scores in a map bounded by
// maxEntries that evicts the oldest key first.
func TestScoreCacheEviction(t *testing.T) {
	c := NewScoreCache(nil, 2)
	for _, k := range []string{"a", "b", "c"} {
		if _, _, err := c.Do(k, func() (float64, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// "c" and "b" are held; "a" was evicted, so recomputing it is a miss.
	for _, k := range []string{"c", "b"} {
		if _, reused, _ := c.Do(k, func() (float64, error) { return 1, nil }); !reused {
			t.Fatalf("%q recomputed though it is within the bound", k)
		}
	}
	if _, reused, _ := c.Do("a", func() (float64, error) { return 1, nil }); reused {
		t.Fatal("evicted entry reported reused")
	}
	// Putting "a" back evicted "b", the oldest left.
	if _, reused, _ := c.Do("b", func() (float64, error) { return 1, nil }); reused {
		t.Fatal("entry evicted by a later put reported reused")
	}
}

// Workers looking up overlapping keys at once each get the key's score,
// computed or read back, also while a nil store's bounded map evicts
// (run under -race in CI).
func TestScoreCacheConcurrentReadThrough(t *testing.T) {
	for _, st := range []CellStore{nil, newMapCellStore()} {
		c := NewScoreCache(st, 8)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := i % 16
					v, _, err := c.Do(fmt.Sprint(k), func() (float64, error) { return float64(k), nil })
					if err != nil || v != float64(k) {
						t.Errorf("key %d: v=%v err=%v", k, v, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
