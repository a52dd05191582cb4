package cluster

import (
	"errors"
	"fmt"
	"testing"

	"sommelier/internal/query"
	"sommelier/internal/resource"
)

// TestRingDeterministicAndBalanced: placement must be a pure function
// of (key, topology), and the virtual nodes must keep partitions within
// sane bounds.
func TestRingDeterministicAndBalanced(t *testing.T) {
	a, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4000
	counts := make([]int, 4)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("id:model-%d@1.0", i)
		sa, sb := a.ShardFor(k), b.ShardFor(k)
		if sa != sb {
			t.Fatalf("ShardFor(%q) differs across identical rings: %d vs %d", k, sa, sb)
		}
		counts[sa]++
	}
	for s, n := range counts {
		// Perfect balance is keys/4; consistent hashing with 64 vnodes
		// should stay within a generous 2x band.
		if n < keys/8 || n > keys/2 {
			t.Errorf("shard %d owns %d of %d keys; ring is badly unbalanced: %v", s, n, keys, counts)
		}
	}
}

// TestRingGrowthMovesFewKeys is the property that makes consistent
// hashing worth its salt: adding one shard to N must re-home roughly
// 1/(N+1) of the keys, not half of them (as mod-hashing would).
func TestRingGrowthMovesFewKeys(t *testing.T) {
	before, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4000
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("id:model-%d@1.0", i)
		if before.ShardFor(k) != after.ShardFor(k) {
			moved++
		}
	}
	// Expect ~20%; fail above 35%.
	if moved > keys*35/100 {
		t.Errorf("adding a 5th shard moved %d/%d keys; want ~1/5", moved, keys)
	}
	if moved == 0 {
		t.Error("adding a shard moved nothing; the new shard owns no keys")
	}
}

// TestPlacementKeyGroupsSeries: models of one series co-locate; bare
// IDs spread.
func TestPlacementKeyGroupsSeries(t *testing.T) {
	r, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	s0 := r.ShardFor(PlacementKey("resnet@1.0", "resnet"))
	s1 := r.ShardFor(PlacementKey("resnet@2.0", "resnet"))
	if s0 != s1 {
		t.Errorf("same-series models landed on shards %d and %d; series must co-locate", s0, s1)
	}
	if PlacementKey("x@1", "") == PlacementKey("x@1", "x@1") {
		t.Error("series and ID keys collide; placement namespaces must be distinct")
	}
}

func res(id string, level float64, mem int64) Result {
	return Result{ID: id, Level: level, Profile: resource.Profile{MemoryBytes: mem}}
}

// TestMergeTopK: global ranking across shards, broadcast dedup keeping
// the best occurrence, and the limit applied after both.
func TestMergeTopK(t *testing.T) {
	q := &query.Query{Pick: query.PickMostSimilar, Limit: 3}
	merged := mergeTopK(q, [][]Result{
		{res("ref@1", 5, 10), res("a@1", 3, 10)},
		{res("ref@1", 5, 10), res("b@1", 4, 10)}, // broadcast duplicate
		{res("c@1", 2, 10)},
	})
	want := []string{"ref@1", "b@1", "a@1"}
	if len(merged) != len(want) {
		t.Fatalf("merged %d results %v, want %v", len(merged), merged, want)
	}
	for i, id := range want {
		if merged[i].ID != id {
			t.Errorf("merged[%d] = %s, want %s (full order %v)", i, merged[i].ID, id, merged)
		}
	}

	// Equal levels must tie-break by ID so shard arrival order is
	// invisible.
	q = &query.Query{Pick: query.PickMostSimilar}
	ab := mergeTopK(q, [][]Result{{res("b@1", 3, 1)}, {res("a@1", 3, 2)}})
	ba := mergeTopK(q, [][]Result{{res("a@1", 3, 2)}, {res("b@1", 3, 1)}})
	if ab[0].ID != "a@1" || ba[0].ID != "a@1" {
		t.Errorf("tie-break order depends on shard arrival: %v vs %v", ab, ba)
	}

	// PICK smallest ranks by the profile, as the engine would.
	q = &query.Query{Pick: query.PickSmallest}
	small := mergeTopK(q, [][]Result{{res("big@1", 5, 100)}, {res("small@1", 1, 10)}})
	if small[0].ID != "small@1" {
		t.Errorf("PICK smallest returned %s first", small[0].ID)
	}
}

// TestHealthOrderPrefersHealthy: replicas with failure streaks sink;
// recovery restores index order.
func TestHealthOrderPrefersHealthy(t *testing.T) {
	h := newHealthTracker([][]QueryBackend{{nil, nil, nil}})
	if got := h.order(0); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("initial order = %v, want [0 1 2]", got)
	}
	h.fail(0, 0)
	h.fail(0, 0)
	h.fail(0, 1)
	if got := h.order(0); got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("order after failures = %v, want [2 1 0]", got)
	}
	h.ok(0, 0) // replica 0 recovered: streak resets
	if got := h.order(0); got[0] != 0 || got[1] != 2 {
		t.Fatalf("order after recovery = %v, want 0 first (streak reset), then 2", got)
	}
	snap := h.Snapshot()
	if snap[0][0].Failures != 2 || snap[0][0].Successes != 1 || snap[0][0].Consecutive != 0 {
		t.Errorf("replica 0 health = %+v", snap[0][0])
	}
}

// TestResponseClass pins the outcome bucketing the metrics and the
// bench report key off.
func TestResponseClass(t *testing.T) {
	cases := []struct {
		resp Response
		want string
	}{
		{Response{Shards: 3}, OutcomeFull},
		{Response{Shards: 3, Stale: []int{1}}, OutcomeDegraded},
		{Response{Shards: 3, Missing: []int{0}}, OutcomeDegraded},
		{Response{Shards: 3, Missing: []int{0, 2}, Stale: []int{1}}, OutcomeDegraded},
		{Response{Shards: 3, Missing: []int{0, 1, 2}}, OutcomeFailed},
	}
	for _, c := range cases {
		if got := c.resp.Class(); got != c.want {
			t.Errorf("Class(missing=%v stale=%v) = %s, want %s", c.resp.Missing, c.resp.Stale, got, c.want)
		}
	}
}

// TestPartialWriteErrorStable: the aggregate error must render replicas
// in sorted order (map iteration must not leak) and expose itself via
// errors.As.
func TestPartialWriteErrorStable(t *testing.T) {
	pw := &PartialWriteError{
		ID:       "m@1",
		Accepted: 1,
		Errs: map[string]error{
			"shard0/replica2": errors.New("z"),
			"shard0/replica1": errors.New("y"),
		},
	}
	var err error = fmt.Errorf("publish: %w", pw)
	var got *PartialWriteError
	if !errors.As(err, &got) || got.Accepted != 1 {
		t.Fatalf("errors.As failed on %v", err)
	}
	first := pw.Error()
	for i := 0; i < 20; i++ {
		if pw.Error() != first {
			t.Fatalf("PartialWriteError message unstable: %q vs %q", first, pw.Error())
		}
	}
	wantOrder := "shard0/replica1: y; shard0/replica2: z"
	if first != fmt.Sprintf("cluster: publish m@1: 1 replica(s) accepted, 2 failed: %s", wantOrder) {
		t.Errorf("message = %q, want sorted replicas %q", first, wantOrder)
	}
}
