package store

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Cell records persist content-addressed cell scores through the same
// store (and, for File, the same framed WAL and snapshot machinery) as job
// records. A cell record's ID is "cell-<owner>-<key>": owner is the record
// ID of the dataset the score was derived from — the handle the orphan
// sweep uses — and key is the content-addressed cache key (a hex digest,
// so it never contains '-'). The score travels as its IEEE-754 bit
// pattern, never a formatted float, so a cached score is bit-identical to
// the computation it replaced.

// cellPrefix heads every cell record ID.
const cellPrefix = "cell-"

// CellStatus is the Status of every cell record; it keeps them
// recognizable in mixed listings (job managers skip non-"job-" IDs
// regardless).
const CellStatus = "cell"

// cellPayload is the Result JSON of a cell record.
type cellPayload struct {
	Bits uint64 `json:"bits"`
}

// CellID returns the record ID of the cell with the given owner (a dataset
// record ID, which must not be empty) and content key.
func CellID(owner, key string) string {
	return cellPrefix + owner + "-" + key
}

// ParseCellOwner extracts the owner from a cell record ID. The key part is
// a digest with no '-', so the owner is everything between the prefix and
// the last '-'.
func ParseCellOwner(id string) (owner string, ok bool) {
	rest, ok := strings.CutPrefix(id, cellPrefix)
	if !ok {
		return "", false
	}
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 {
		return "", false
	}
	return rest[:i], true
}

// CellCache adapts a Store to the runner's CellStore seam for one owning
// dataset: GetCell/PutCell read and write "cell-" records. It is the store
// a runner.ScoreCache reads through; distributed workers sharing one store
// therefore share one cell cache.
type CellCache struct {
	store Store
	owner string
}

// NewCellCache returns the cell cache of the given owner (a dataset record
// ID) over s.
func NewCellCache(s Store, owner string) *CellCache {
	return &CellCache{store: s, owner: owner}
}

// Owner returns the owning dataset record ID.
func (c *CellCache) Owner() string { return c.owner }

// GetCell returns the stored score bits for key.
func (c *CellCache) GetCell(key string) (uint64, bool, error) {
	rec, ok, err := c.store.Get(CellID(c.owner, key))
	if err != nil || !ok {
		return 0, false, err
	}
	var p cellPayload
	if err := json.Unmarshal(rec.Result, &p); err != nil {
		// A corrupt cell record is a miss, not a failure: the caller
		// recomputes and overwrites it.
		return 0, false, nil
	}
	return p.Bits, true, nil
}

// PutCell stores the score bits for key.
func (c *CellCache) PutCell(key string, bits uint64) error {
	result, err := json.Marshal(cellPayload{Bits: bits})
	if err != nil {
		return fmt.Errorf("store: encoding cell record: %w", err)
	}
	return c.store.Put(Record{ID: CellID(c.owner, key), Status: CellStatus, Result: result})
}
