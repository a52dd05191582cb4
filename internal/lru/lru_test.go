package lru

import "testing"

// TestEvictsLeastRecentlyUsed: Get and a refreshing Add both count as
// use, eviction takes the entry idle longest, and Remove frees a slot.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	c.Add("c", 3) // b is now the idle one
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived; Get(a) did not refresh recency")
	}
	c.Add("a", 10) // refresh in place, no growth
	c.Add("d", 4)  // evicts c
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived; a refreshing Add did not count as use")
	}
	if v, _ := c.Get("a"); v != 10 || c.Len() != 2 {
		t.Fatalf("a = %d, len %d; want 10, 2", v, c.Len())
	}
	c.Remove("a")
	c.Remove("never-added")
	if _, ok := c.Get("a"); ok || c.Len() != 1 {
		t.Fatalf("after Remove: a present %v, len %d; want absent, 1", ok, c.Len())
	}
}

// TestUnbounded: a non-positive capacity never evicts.
func TestUnbounded(t *testing.T) {
	type key struct {
		shard int
		q     string
	}
	c := New[key, []int](0)
	for i := 0; i < 100; i++ {
		c.Add(key{i % 3, string(rune('a' + i))}, []int{i})
	}
	if c.Len() != 100 {
		t.Fatalf("len = %d, want 100", c.Len())
	}
}
