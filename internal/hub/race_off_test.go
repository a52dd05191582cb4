//go:build !race

package hub

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops entries at random, so an
// allocation bound on recycled buffers does not hold.
const raceEnabled = false
