// Package errflow is errflow's golden input: errors that callers test
// with errors.Is must keep their chain intact — wrapped with %w on
// every propagation hop, never flattened to text, and never replaced
// by a fresh error on a path that just proved a sentinel. Each flagged
// function is paired with a clean variant.
package errflow

import (
	"errors"
	"fmt"
)

// ErrMissing and ErrCorrupt are the package's sentinels, matched by
// callers with errors.Is.
var (
	ErrMissing = errors.New("missing")
	ErrCorrupt = errors.New("corrupt")
)

// wrapClean propagates with %w — the sanctioned shape.
func wrapClean(id string, err error) error {
	return fmt.Errorf("load %q: %w", id, err)
}

// flattenV re-stringifies the chain with %v.
func flattenV(id string, err error) error {
	return fmt.Errorf("load %q: %v", id, err) // want `error formatted with %v loses the chain`
}

// flattenS re-stringifies with %s; width and flags must not confuse
// the verb/argument alignment.
func flattenS(id string, err error) error {
	return fmt.Errorf("load %-8q: %s", id, err) // want `error formatted with %s loses the chain`
}

// flattenCause wraps the sentinel but flattens the cause behind it.
func flattenCause(id string, err error) error {
	return fmt.Errorf("model %q: %w: %v", id, ErrCorrupt, err) // want `error formatted with %v loses the chain`
}

// stringifyConcat rebuilds the error from a prefix and its text.
func stringifyConcat(err error) error {
	return errors.New("repo: " + err.Error()) // want `err.Error\(\) re-stringifies the chain`
}

// stringifyNew rebuilds the error from its text.
func stringifyNew(err error) error {
	return errors.New(err.Error()) // want `err.Error\(\) re-stringifies the chain`
}

// stringifyErrorf hides the same flattening behind a string argument.
func stringifyErrorf(id string, err error) error {
	return fmt.Errorf("load %q failed: %s", id, err.Error()) // want `err.Error\(\) re-stringifies the chain`
}

// dropsSentinel proves ErrMissing holds, then returns an error that
// carries neither the original nor the sentinel.
func dropsSentinel(err error) error {
	if errors.Is(err, ErrMissing) {
		return errors.New("not found") // want `drops ErrMissing established by errors.Is`
	}
	return err
}

// keepsOriginal wraps the proven error — the chain survives.
func keepsOriginal(err error) error {
	if errors.Is(err, ErrMissing) {
		return fmt.Errorf("lookup: %w", err)
	}
	return err
}

// keepsSentinel returns the sentinel itself — also fine.
func keepsSentinel(err error) error {
	if errors.Is(err, ErrMissing) {
		return fmt.Errorf("lookup: %w", ErrMissing)
	}
	return err
}

// negatedGuard establishes the sentinel through !errors.Is on the
// early-out path; the fall-through still holds the fact.
func negatedGuard(err error) error {
	if !errors.Is(err, ErrCorrupt) {
		return nil
	}
	return errors.New("damaged beyond repair") // want `drops ErrCorrupt established by errors.Is`
}

// reassigned kills the guard: after err is replaced, a fresh error is
// no longer dropping anything.
func reassigned(err error) error {
	if errors.Is(err, ErrMissing) {
		err = nil
		return errors.New("fresh start")
	}
	return err
}

// recordError is an Error method: flattening to text is its contract,
// so none of the rules apply inside it.
type recordError struct {
	id  string
	err error
}

func (e *recordError) Error() string {
	return fmt.Sprintf("record %s: %v", e.id, e.err)
}
