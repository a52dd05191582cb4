// Package wire reads the repository's big-endian binary forms — the
// hub's query frames and the chunk store's manifests — front to back,
// checking every declared length against the bytes left before
// anything is sized from it.
package wire

import "fmt"

// Reader consumes a binary form front to back. The first failure
// sticks: the input is dropped, later reads return zero values, and Err
// says what went wrong first, prefixed with the form's name.
//
// The input's type decides what Str costs. Over a []byte every string
// is a copy, so nothing read aliases the caller's buffer; over a string
// every string is a slice of it, so a caller that converts its bytes
// once gets all its strings from that one allocation.
type Reader[T string | []byte] struct {
	b      T
	err    error
	prefix string
}

// NewReader reads b; prefix opens every error message.
func NewReader[T string | []byte](b T, prefix string) Reader[T] {
	return Reader[T]{b: b, prefix: prefix}
}

// Fail records a failure, unless one is already recorded, and drops the
// rest of the input.
func (r *Reader[T]) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.prefix+format, args...)
	}
	r.b = r.b[:0]
}

// Err is the first failure, or nil.
func (r *Reader[T]) Err() error { return r.err }

// Len is the number of bytes not yet read.
func (r *Reader[T]) Len() int { return len(r.b) }

// Take consumes n bytes, or fails and returns none.
func (r *Reader[T]) Take(n int) T {
	if n > len(r.b) {
		r.Fail("truncated")
		return r.b
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// U8 reads one byte.
func (r *Reader[T]) U8() byte {
	if v := r.Take(1); len(v) == 1 {
		return v[0]
	}
	return 0
}

// U16 reads a uint16.
func (r *Reader[T]) U16() uint16 {
	if v := r.Take(2); len(v) == 2 {
		return uint16(v[0])<<8 | uint16(v[1])
	}
	return 0
}

// U32 reads a uint32, as an int.
func (r *Reader[T]) U32() int {
	if v := r.Take(4); len(v) == 4 {
		return int(uint32(v[0])<<24 | uint32(v[1])<<16 | uint32(v[2])<<8 | uint32(v[3]))
	}
	return 0
}

// U64 reads a uint64.
func (r *Reader[T]) U64() uint64 {
	hi := uint64(r.U32())
	return hi<<32 | uint64(r.U32())
}

// Count reads an element count and checks that the bytes left can hold
// that many elements of at least elem bytes each, so nothing is ever
// sized from a count the input cannot back.
func (r *Reader[T]) Count(elem int) int {
	n := r.U32()
	if r.err == nil && uint64(n)*uint64(elem) > uint64(len(r.b)) {
		r.Fail("%d elements declared, %d bytes left", n, len(r.b))
		return 0
	}
	return n
}

// Str reads a uint32 length and that many bytes as a string.
func (r *Reader[T]) Str() string {
	n := r.U32()
	if r.err == nil && n > len(r.b) {
		r.Fail("string of %d bytes declared, %d left", n, len(r.b))
		return ""
	}
	return string(r.Take(n))
}
