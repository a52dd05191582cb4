// Package lib is ctxcheck's golden input for library packages: ctx
// goes first, and roots (Background/TODO) are never minted here.
package lib

import "context"

// Fetch threads ctx first — no finding.
func Fetch(ctx context.Context, id string) error {
	_, cancel := context.WithTimeout(ctx, 0)
	defer cancel()
	return ctx.Err()
}

// Buried takes ctx in the middle of the parameter list.
func Buried(id string, ctx context.Context, n int) error { // want `takes context\.Context at position 2`
	return ctx.Err()
}

// Coordinator carries the method form of the position rule.
type Coordinator struct{}

// scatter takes ctx second, as a method.
func (c *Coordinator) scatter(shard int, ctx context.Context, qs []string) error { // want `takes context\.Context at position 2`
	return ctx.Err()
}

// Dropped has the caller's ctx in hand and passes a fresh root on
// instead, so the callee stops honouring the caller's cancellation.
func Dropped(ctx context.Context, id string) error {
	return Fetch(context.Background(), id) // want `context\.Background in a library package`
}

// Minted fabricates a root, detaching work from the caller.
func Minted(id string) error {
	ctx := context.Background() // want `context\.Background in a library package`
	return ctx.Err()
}

// Todo is the same violation in TODO form.
func Todo(id string) error {
	return context.TODO().Err() // want `context\.TODO in a library package`
}

// literalBuried flags function literals too.
var literalBuried = func(n int, ctx context.Context) error { // want `takes context\.Context at position 2`
	return ctx.Err()
}

// NoCtx takes no context at all — threading is only checked where a
// ctx exists, so no finding.
func NoCtx(id string) string { return id }

// FetchLegacy wraps Fetch for pre-context callers.
//
// Deprecated: use Fetch. A deprecation notice buys no allowance: a
// compatibility shim that mints a root is a finding like any other.
func FetchLegacy(id string) error {
	return Fetch(context.Background(), id) // want `context\.Background in a library package`
}

// FreshMint is the same shim without the notice.
func FreshMint(id string) error {
	return Fetch(context.Background(), id) // want `context\.Background in a library package`
}
