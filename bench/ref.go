package bench

import (
	"sort"
	"strconv"
)

// RefNominalUS is the cost of one reference-kernel unit, in
// microseconds, on the machine state every reported time is corrected
// to. It is part of the benchmark's definition: changing it, or
// anything else in this file, rescales every timing metric and breaks
// comparison with every earlier run. Never edit.
const RefNominalUS = 30.0

const (
	refTableSize = 4096
	refLookups   = 224
	refSlots     = 64
	refDim       = 24
)

// Ref is the reference kernel behind speed correction: a fixed,
// allocation-free, stdlib-only unit of work whose cost tracks how fast
// this machine runs ordinary Go code right now. Three fifths of a unit is
// a dense 24×24 floating-point multiply-accumulate block, the rest is
// map lookups, integer formatting into a fixed buffer, FNV-1a over the
// bytes and a sort of a fixed 64-slot slice. The arithmetic block is
// there because it is what a busy neighbour slows most: in the probe
// series taken while this benchmark was designed, throughput-bound
// arithmetic lost up to 60 % where the lookup-bound part lost 25 %, and
// the program's own operations (matrix products when indexing, hashing
// and sorting when querying) lost 50–80 %. The kernel shares no code
// and no heap with the program under test, so an optimisation there
// cannot move it.
type Ref struct {
	table   map[uint64]uint64
	buf     [24]byte
	slots   [refSlots]float64
	a, b, c [refDim * refDim]float64
	state   uint64
}

// NewRef builds the kernel's fixed tables.
func NewRef() *Ref {
	r := &Ref{table: make(map[uint64]uint64, refTableSize), state: 0x9e3779b97f4a7c15}
	for i := uint64(0); i < refTableSize; i++ {
		r.table[i] = i*2654435761 + 1
	}
	for i := range r.a {
		r.a[i] = float64(i%7)*0.25 + 0.5
		r.b[i] = float64(i%5)*0.125 + 0.25
	}
	return r
}

// Unit runs one unit of reference work and returns a value that
// depends on all of it, so none can be optimised away.
func (r *Ref) Unit() uint64 {
	h := r.state
	r.a[h%(refDim*refDim)] = float64(h>>40) * (1.0 / (1 << 24))
	for i := 0; i < refDim; i++ {
		for j := 0; j < refDim; j++ {
			s := 0.0
			for k := 0; k < refDim; k++ {
				s += r.a[i*refDim+k] * r.b[k*refDim+j]
			}
			r.c[i*refDim+j] = s
		}
	}
	h ^= uint64(r.c[h%(refDim*refDim)] * 1024)
	for i := 0; i < refLookups; i++ {
		v := r.table[h%refTableSize]
		b := strconv.AppendInt(r.buf[:0], int64(v^h), 10)
		for _, c := range b {
			h = (h ^ uint64(c)) * 1099511628211
		}
		r.slots[i%refSlots] = float64(h >> 11)
	}
	sort.Float64s(r.slots[:])
	r.state = h ^ uint64(r.slots[refSlots/2])
	return r.state
}
