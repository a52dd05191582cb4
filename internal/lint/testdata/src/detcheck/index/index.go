// Package index is detcheck's golden input: its import-path leaf
// ("index") marks it determinism-critical, so clock reads, global RNG,
// and order-leaking map ranges are all findings — while the idiomatic
// seeded-RNG and sort-after-range patterns stay silent.
package index

import (
	"math/rand"
	"sort"
	"time"
)

func clockLeak() int64 {
	return time.Now().UnixNano() // want `time\.Now in a deterministic package`
}

func globalRNG() int {
	return rand.Intn(5) // want `global math/rand\.Intn in a deterministic package`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand\.Shuffle`
}

// seededRNG is the sanctioned pattern: an explicit seeded source.
func seededRNG(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(5)
}

func orderLeak(set map[string]bool) []string {
	var ids []string
	for id := range set { // want `range over map feeds ids in map iteration order`
		ids = append(ids, id)
	}
	return ids
}

// orderLeakPrealloc collects into a preallocated slice and hands it on
// unsorted: the shape of a scan that dropped its sort.Strings(ids).
func orderLeakPrealloc(set map[string]int, keep func([]string) int) int {
	ids := make([]string, 0, len(set))
	for id := range set { // want `range over map feeds ids in map iteration order`
		ids = append(ids, id)
	}
	return keep(ids)
}

// sortedAfterRange is the sanctioned pattern: collect, then sort.
func sortedAfterRange(set map[string]bool) []string {
	var ids []string
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// helperSorted trusts the repo convention that sort-prefixed helpers
// establish order (lsh.sortMatches).
func helperSorted(set map[string]int) []string {
	var ids []string
	for id := range set {
		ids = append(ids, id)
	}
	sortIDs(ids)
	return ids
}

func sortIDs(ids []string) { sort.Strings(ids) }

// aggregate only folds the map into order-independent state — ranges
// like this never leak iteration order.
func aggregate(set map[string]int) int {
	total := 0
	for _, v := range set {
		total += v
	}
	return total
}

// copyMap rebuilds a map from a map; no ordered output involved.
func copyMap(src map[string]string) map[string]string {
	dst := make(map[string]string, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// localAccumulator appends inside the loop body to a slice that never
// outlives one iteration; iteration order cannot escape.
func localAccumulator(set map[string][]int) int {
	n := 0
	for _, vs := range set {
		var evens []int
		for _, v := range vs {
			if v%2 == 0 {
				evens = append(evens, v)
			}
		}
		n += len(evens)
	}
	return n
}
