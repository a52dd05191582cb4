// Package lockflow is lockflow's golden input: every mutex
// acquisition must be released on all return/panic paths, and no
// file, network, or encoding call may run while a mutex is held.
// Each flagged function is paired with an explicitly clean variant of
// the same shape.
package lockflow

import (
	"encoding/json"
	"errors"
	"os"
	"sync"
)

// Store pairs a mutex with the state it protects.
type Store struct {
	mu    sync.RWMutex
	state map[string][]byte
}

var errMissing = errors.New("missing")

// getDeferred is the canonical clean pairing: defer covers every path.
func (s *Store) getDeferred(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.state[key]
	if !ok {
		return nil, errMissing
	}
	return b, nil
}

// getSplit releases explicitly on both paths — the cas.Get idiom the
// analysis must follow precisely.
func (s *Store) getSplit(key string) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.state[key]
	if !ok {
		s.mu.RUnlock()
		return nil, errMissing
	}
	s.mu.RUnlock()
	return b, nil
}

// leakOnError forgets the release on the error path.
func (s *Store) leakOnError(key string) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.state[key]
	if !ok {
		return nil, errMissing // want `Store.leakOnError returns while s.mu is still held`
	}
	s.mu.RUnlock()
	return b, nil
}

// leakToEnd falls off the end of the function with the lock held.
func (s *Store) leakToEnd(key string) {
	s.mu.Lock()
	delete(s.state, key)
} // want `Store.leakToEnd reaches the end of the function while s.mu is still held`

// panicsHeld panics inside the critical section with no deferred
// release pending — every other goroutine wedges.
func (s *Store) panicsHeld(key string) {
	s.mu.Lock()
	if s.state == nil {
		panic("no state") // want `Store.panicsHeld panics while s.mu is still held`
	}
	delete(s.state, key)
	s.mu.Unlock()
}

// panicsDeferred panics too, but the deferred release covers it.
func (s *Store) panicsDeferred(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == nil {
		panic("no state")
	}
	delete(s.state, key)
}

// deferClosure releases inside a deferred closure — also a pairing.
func (s *Store) deferClosure(key string) {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	delete(s.state, key)
}

// writeUnderLock performs disk I/O inside the critical section — the
// exact shape of the PR-6 Repository.Publish bug.
func (s *Store) writeUnderLock(path, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.WriteFile(path, s.state[key], 0o644) // want `Store.writeUnderLock calls os.WriteFile while s.mu is held`
}

// readUnderLock checks membership, then reads the file before
// releasing: every other caller now waits on the disk.
func (s *Store) readUnderLock(path, key string) ([]byte, error) {
	s.mu.Lock()
	if _, ok := s.state[key]; !ok {
		s.mu.Unlock()
		return nil, errMissing
	}
	b, err := os.ReadFile(path) // want `Store.readUnderLock calls os.ReadFile while s.mu is held`
	s.mu.Unlock()
	return b, err
}

// removeUnderLock deletes a file inside the section that records it.
func (s *Store) removeUnderLock(path, key string) {
	s.mu.Lock()
	os.Remove(path) // want `Store.removeUnderLock calls os.Remove while s.mu is held`
	delete(s.state, key)
	s.mu.Unlock()
}

// writeOutsideLock copies under the lock and writes after releasing.
func (s *Store) writeOutsideLock(path, key string) error {
	s.mu.Lock()
	b := append([]byte(nil), s.state[key]...)
	s.mu.Unlock()
	return os.WriteFile(path, b, 0o644)
}

// encodeUnderLock runs the encoder while holding the read lock;
// encoding counts as I/O-shaped work that must leave the section.
func (s *Store) encodeUnderLock() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return json.Marshal(s.state) // want `Store.encodeUnderLock calls json.Marshal while s.mu is held`
}

// encodeOutsideLock snapshots under the lock, encodes after.
func (s *Store) encodeOutsideLock() ([]byte, error) {
	s.mu.RLock()
	snap := make(map[string][]byte, len(s.state))
	for k, v := range s.state {
		snap[k] = v
	}
	s.mu.RUnlock()
	return json.Marshal(snap)
}

// dropLocked runs under its caller's lock by naming convention: no
// pairing is demanded of it, and touching only memory is fine.
func (s *Store) dropLocked(key string) {
	delete(s.state, key)
}

// flushLocked breaks the convention: it runs under the caller's lock
// but performs disk I/O.
func (s *Store) flushLocked(path, key string) error {
	return os.WriteFile(path, s.state[key], 0o644) // want `Store.flushLocked runs under its caller's lock \(Locked suffix\) but calls os.WriteFile`
}

// litLeak acquires inside a function literal and loses it on one path.
func (s *Store) litLeak(keys []string) func() error {
	return func() error {
		s.mu.Lock()
		for _, k := range keys {
			if k == "" {
				return errMissing // want `returns while s.mu is still held`
			}
			delete(s.state, k)
		}
		s.mu.Unlock()
		return nil
	}
}
