// Package lru is the repo's one least-recently-used cache: the hub
// client's model cache and the cluster coordinator's last-known-good
// answers both bound their memory with it.
package lru

import "container/list"

// Cache is a size-capped map with least-recently-used eviction. It is
// not safe for concurrent use — owners guard it with their own mutex.
type Cache[K comparable, V any] struct {
	cap   int // <= 0 means unbounded
	ll    *list.List
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries;
// capacity <= 0 means unbounded.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
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
	if e, ok := c.items[key]; ok {
		e.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(e)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	for c.cap > 0 && c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
}

// Remove drops an entry if present.
func (c *Cache[K, V]) Remove(key K) {
	if e, ok := c.items[key]; ok {
		c.ll.Remove(e)
		delete(c.items, key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }
