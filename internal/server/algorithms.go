package server

import (
	"sort"
	"sync"

	corecvcp "cvcp/internal/cvcp"
)

// defaultKRange is the conservative k range used when a k-selection job
// does not name its own candidates.
var defaultKRange = corecvcp.KRange(2, 10)

type algorithmEntry struct {
	alg           corecvcp.Algorithm
	defaultParams []int
}

var (
	algMu      sync.RWMutex
	algorithms = map[string]algorithmEntry{
		"fosc": {corecvcp.FOSCOpticsDend{}, corecvcp.DefaultMinPtsRange},
		"mpck": {corecvcp.MPCKMeans{}, defaultKRange},
		"copk": {corecvcp.COPKMeans{}, defaultKRange},
	}
)

// RegisterAlgorithm installs alg under name for job submissions, replacing
// any previous registration. defaultParams is the candidate range used when
// a submission omits one. Tests use this to install instrumented
// algorithms; deployments can use it to expose additional methods.
func RegisterAlgorithm(name string, alg corecvcp.Algorithm, defaultParams []int) {
	algMu.Lock()
	defer algMu.Unlock()
	algorithms[name] = algorithmEntry{alg, append([]int(nil), defaultParams...)}
}

func lookupAlgorithm(name string) (algorithmEntry, bool) {
	algMu.RLock()
	defer algMu.RUnlock()
	e, ok := algorithms[name]
	return e, ok
}

// gridHasFOSC reports whether any of the named candidates is the FOSC
// method — the only registered algorithm with an OPTICS distance matrix,
// and hence the only one the matrix32 option applies to.
func gridHasFOSC(names []string) bool {
	for _, name := range names {
		if entry, ok := lookupAlgorithm(name); ok {
			if _, ok := entry.alg.(corecvcp.FOSCOpticsDend); ok {
				return true
			}
		}
	}
	return false
}

// algorithmNames returns the registered algorithm names, sorted, for error
// messages.
func algorithmNames() []string {
	algMu.RLock()
	defer algMu.RUnlock()
	out := make([]string, 0, len(algorithms))
	for name := range algorithms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
