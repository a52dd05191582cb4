package faults

import (
	"time"

	"sommelier/internal/graph"
	"sommelier/internal/repo"
)

// FlakyStore decorates a repo.Store with injected faults so repository-level
// failure handling is testable without a faulty disk. Publish, Load and
// Delete can fail with an ErrInjected-wrapped error (ConnError,
// ServerError and Truncate kinds all surface as errors here — there is
// no wire to truncate) or stall on a Latency fault. List, Metadata and
// Len are cheap local reads and pass through untouched except for
// latency spikes on List.
type FlakyStore struct {
	inner repo.Store
	inj   *Injector
}

// NewFlakyStore wraps a store with the injector.
func NewFlakyStore(inner repo.Store, inj *Injector) *FlakyStore {
	return &FlakyStore{inner: inner, inj: inj}
}

func (s *FlakyStore) fault(op string) error {
	switch kind := s.inj.Next(); kind {
	case ConnError, ServerError, Truncate:
		return injectedErr(kind, op)
	case Latency:
		time.Sleep(s.inj.Latency())
	}
	return nil
}

// Publish stores the model unless a fault is injected.
func (s *FlakyStore) Publish(m *graph.Model) (string, error) {
	if err := s.fault("publish"); err != nil {
		return "", err
	}
	return s.inner.Publish(m)
}

// Load fetches the model unless a fault is injected.
func (s *FlakyStore) Load(id string) (*graph.Model, error) {
	if err := s.fault("load " + id); err != nil {
		return nil, err
	}
	return s.inner.Load(id)
}

// Delete removes the model unless a fault is injected.
func (s *FlakyStore) Delete(id string) error {
	if err := s.fault("delete " + id); err != nil {
		return err
	}
	return s.inner.Delete(id)
}

// List passes through, delayed by latency faults only.
func (s *FlakyStore) List() []repo.Metadata {
	if s.inj.Next() == Latency {
		time.Sleep(s.inj.Latency())
	}
	return s.inner.List()
}

// Metadata passes through.
func (s *FlakyStore) Metadata(id string) (repo.Metadata, bool) { return s.inner.Metadata(id) }

// Len passes through.
func (s *FlakyStore) Len() int { return s.inner.Len() }
