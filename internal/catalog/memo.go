package catalog

import "sync"

// memo is the catalog's one lazily-filled concurrent cache: get runs
// fill at most once per key, and every other caller of that key blocks
// on — and then shares — the first result, error included. The once
// runs outside the map lock, so callers asking for different keys never
// serialize on each other's work. The zero value is an empty memo.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V] // guarded by mu
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

func (m *memo[K, V]) get(key K, fill func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		if m.entries == nil {
			m.entries = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.val, e.err = fill() })
	return e.val, e.err
}

// len reports how many distinct keys were asked for.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
