// Package lru is the repo's one least-recently-used cache: the hub
// client's model cache, the cluster coordinator's last-known-good
// answers and the catalog's observation memos all bound their memory
// with it.
package lru

import "container/list"

// Cache is a size-capped map with least-recently-used eviction. Every
// entry has a size — 1 unless the cache was made by NewSized — and the
// sizes sum to at most the cap. It is not safe for concurrent use —
// owners guard it with their own mutex.
type Cache[K comparable, V any] struct {
	cap   int64 // <= 0 means unbounded
	used  int64
	size  func(V) int64
	ll    *list.List
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// New returns an empty cache holding at most capacity entries;
// capacity <= 0 means unbounded.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return NewSized[K](int64(capacity), func(V) int64 { return 1 })
}

// NewSized returns an empty cache whose entries' sizes, as size reports
// them when each is added, sum to at most budget; budget <= 0 means
// unbounded. An entry larger than the budget is not kept.
func NewSized[K comparable, V any](budget int64, size func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{cap: budget, size: size, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the cached value and marks it most-recently-used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*entry[K, V]).val, true
}

// Add inserts or refreshes an entry, evicting the least-recently-used
// entries beyond the cap.
func (c *Cache[K, V]) Add(key K, val V) {
	size := c.size(val)
	if e, ok := c.items[key]; ok {
		ent := e.Value.(*entry[K, V])
		c.used += size - ent.size
		ent.val, ent.size = val, size
		c.ll.MoveToFront(e)
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, size: size})
		c.used += size
	}
	for c.cap > 0 && c.used > c.cap {
		c.removeElement(c.ll.Back())
	}
}

// Remove drops an entry if present.
func (c *Cache[K, V]) Remove(key K) {
	if e, ok := c.items[key]; ok {
		c.removeElement(e)
	}
}

func (c *Cache[K, V]) removeElement(e *list.Element) {
	ent := e.Value.(*entry[K, V])
	c.ll.Remove(e)
	delete(c.items, ent.key)
	c.used -= ent.size
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Size returns the sum of the cached entries' sizes.
func (c *Cache[K, V]) Size() int64 { return c.used }
