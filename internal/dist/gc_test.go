package dist

import (
	"fmt"
	"sort"
	"testing"

	"cvcp/internal/cvcp"
	"cvcp/internal/store"
	"cvcp/internal/store/storetest"
)

// TestGCProbesStoreInSortedOrder pins the determinism fix cvcplint's
// mapiter analyzer caught: gc collects the cached plan IDs from a map
// and must sort them before probing the store, so the shared store sees
// the same read sequence on every run and every node regardless of
// Go's randomized map iteration order.
func TestGCProbesStoreInSortedOrder(t *testing.T) {
	mem := store.NewMemory()
	faulty := storetest.Wrap(mem)
	var probed []string
	faulty.Hook(storetest.OpGet, func(call int, id string) error {
		probed = append(probed, id)
		return nil
	})

	w := &Worker{Store: faulty, ID: "gc-test", plans: map[string]*cvcp.CellPlan{}}
	var want []string
	// Insertion order is irrelevant — map iteration scrambles it anyway;
	// enough entries that an unsorted walk cannot pass by luck.
	for i := 17; i >= 0; i-- {
		id := fmt.Sprintf("job-%02d", i)
		w.plans[id] = &cvcp.CellPlan{}
		want = append(want, ShardID(id, 0))
	}
	sort.Strings(want)

	// No shard records exist, so every plan is stale: gc must probe all
	// of them (and drop all of them) in sorted ID order.
	w.gc()

	if fmt.Sprint(probed) != fmt.Sprint(want) {
		t.Errorf("gc probe order:\n got %v\nwant %v", probed, want)
	}
	if len(w.plans) != 0 {
		t.Errorf("gc left %d stale plans cached, want 0", len(w.plans))
	}
}
