package wire

import (
	"testing"
	"unsafe"
)

// TestReaderFailureSticks: a read past the end fails once, drops the
// rest, and every later read returns zero values under the first error.
func TestReaderFailureSticks(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 2, 'h', 'i', 0, 0, 0, 9, 'x'}, "test: ")
	if s := r.Str(); s != "hi" {
		t.Fatalf("Str = %q, want hi", s)
	}
	if s := r.Str(); s != "" || r.Err() == nil || r.Err().Error() != "test: string of 9 bytes declared, 1 left" {
		t.Fatalf("overlong Str = %q, err %v", s, r.Err())
	}
	first := r.Err()
	if v := r.U64(); v != 0 || r.Len() != 0 || r.Err() != first {
		t.Fatalf("after a failure: U64 = %d, %d bytes left, err %v", v, r.Len(), r.Err())
	}
	c := NewReader("\x00\x00\x00\x05ab", "test: ")
	if n := c.Count(1); n != 0 || c.Err() == nil {
		t.Fatalf("Count past the input = %d, err %v", n, c.Err())
	}
}

// TestReaderStrAliasesOnlyStrings: over a string, Str slices the input;
// over a []byte it copies, so the caller may reuse its buffer.
func TestReaderStrAliasesOnlyStrings(t *testing.T) {
	in := "\x00\x00\x00\x03abc"
	sr := NewReader(in, "")
	if s := sr.Str(); unsafe.StringData(s) != unsafe.StringData(in[4:]) {
		t.Error("Str over a string copied its bytes")
	}
	buf := []byte(in)
	r := NewReader(buf, "")
	s := r.Str()
	buf[4] = 'z'
	if s != "abc" {
		t.Errorf("Str over a []byte aliases the buffer: %q", s)
	}
}
