package hub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"sommelier/internal/query"
	"sommelier/internal/resource"
)

// The query wire's binary form. A client that sends Accept:
// ContentTypeResults on GET or POST /v1/query gets its answer as one
// results frame instead of JSON, and a POST whose Content-Type is
// ContentTypeQueries carries its batch as a queries frame instead of
// {"queries":[…]}. Every count and length is a uint32, big endian:
//
//	queries frame:  count, then per query: len, bytes
//	results frame:  slots, then per slot:
//	  tag 0 (answer):  count, then per result a record
//	  tag 1 (refused): len, code, len, message
//	record:         len, ID; Level as float64 bits; flags (1 Synthesized,
//	                2 Derived); len, DonorID; len, Segment; FLOPs;
//	                MemoryBytes; LatencyMS as float64 bits
//
// Floats travel as their bits, so a decoded answer is bit-identical to
// the engine's. Every encoding is canonical — one byte string per value
// — so whatever the decoders accept re-encodes byte for byte.
const (
	// ContentTypeQueries marks a POST /v1/query body as a queries frame.
	ContentTypeQueries = "application/x-sommelier-queries"
	// ContentTypeResults names the results frame, in a request's Accept
	// and a response's Content-Type.
	ContentTypeResults = "application/x-sommelier-results"
)

const (
	frameLen       = 4
	slotAnswer     = 0
	slotRefused    = 1
	flagSynth      = 1
	flagDerived    = 2
	flagsKnown     = flagSynth | flagDerived
	minSlotLen     = 1 + frameLen
	minRecordLen   = frameLen + 8 + 1 + frameLen + frameLen + 3*8
	minQueryLen    = frameLen
	errFramePrefix = "hub: query frame: "
)

var errTrailing = errors.New(errFramePrefix + "trailing bytes")

func appendU32(b []byte, n int) []byte { return binary.BigEndian.AppendUint32(b, uint32(n)) }

func appendStr(b []byte, s string) []byte { return append(appendU32(b, len(s)), s...) }

// appendQueries appends the queries frame of qs to b.
func appendQueries(b []byte, qs []string) []byte {
	b = appendU32(b, len(qs))
	for _, q := range qs {
		b = appendStr(b, q)
	}
	return b
}

// appendResults appends the results frame of one answer per slot:
// qerrs[i] when it is non-nil, rss[i] otherwise.
func appendResults(b []byte, rss [][]query.Result, qerrs []*QueryError) []byte {
	b = appendU32(b, len(qerrs))
	for i, qe := range qerrs {
		if qe != nil {
			b = append(b, slotRefused)
			b = appendStr(appendStr(b, qe.Code), qe.Message)
			continue
		}
		b = append(b, slotAnswer)
		b = appendU32(b, len(rss[i]))
		for j := range rss[i] {
			b = appendRecord(b, &rss[i][j])
		}
	}
	return b
}

func appendRecord(b []byte, r *query.Result) []byte {
	b = appendStr(b, r.ID)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Level))
	var flags byte
	if r.Synthesized {
		flags |= flagSynth
	}
	if r.Derived {
		flags |= flagDerived
	}
	b = append(b, flags)
	b = appendStr(appendStr(b, r.DonorID), r.Segment)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Profile.FLOPs))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Profile.MemoryBytes))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(r.Profile.LatencyMS))
}

// frameReader consumes a frame front to back. The first failure sticks:
// later reads return zero values, and err says what went wrong first.
type frameReader struct {
	b   []byte
	err error
}

func (f *frameReader) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf(errFramePrefix+format, args...)
	}
	f.b = nil
}

func (f *frameReader) u8() byte {
	if len(f.b) < 1 {
		f.fail("truncated")
		return 0
	}
	v := f.b[0]
	f.b = f.b[1:]
	return v
}

func (f *frameReader) u32() int {
	if len(f.b) < frameLen {
		f.fail("truncated")
		return 0
	}
	v := binary.BigEndian.Uint32(f.b)
	f.b = f.b[frameLen:]
	return int(v)
}

func (f *frameReader) u64() uint64 {
	if len(f.b) < 8 {
		f.fail("truncated")
		return 0
	}
	v := binary.BigEndian.Uint64(f.b)
	f.b = f.b[8:]
	return v
}

// count reads an element count and checks that the bytes left can hold
// that many elements of at least elem bytes each, so nothing is ever
// sized from a count the input cannot back.
func (f *frameReader) count(elem int) int {
	n := f.u32()
	if f.err == nil && uint64(n)*uint64(elem) > uint64(len(f.b)) {
		f.fail("%d elements declared, %d bytes left", n, len(f.b))
		return 0
	}
	return n
}

func (f *frameReader) str() string {
	n := f.u32()
	if f.err == nil && n > len(f.b) {
		f.fail("string of %d bytes declared, %d left", n, len(f.b))
		return ""
	}
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

// end reports the first failure, or trailing bytes after a complete
// frame.
func (f *frameReader) end() error {
	if f.err == nil && len(f.b) > 0 {
		return errTrailing
	}
	return f.err
}

// readQueries decodes a queries frame.
func readQueries(data []byte) ([]string, error) {
	f := frameReader{b: data}
	qs := make([]string, f.count(minQueryLen))
	for i := range qs {
		qs[i] = f.str()
	}
	if err := f.end(); err != nil {
		return nil, err
	}
	return qs, nil
}

// readResults decodes a results frame that must hold exactly want
// slots, index-aligned like appendResults' input: exactly one of
// rss[i] and qerrs[i] is meaningful per slot, and an answer with no
// results decodes as nil.
func readResults(data []byte, want int) ([][]query.Result, []*QueryError, error) {
	f := frameReader{b: data}
	n := f.count(minSlotLen)
	if f.err == nil && n != want {
		return nil, nil, fmt.Errorf(errFramePrefix+"%d answers for %d queries", n, want)
	}
	rss := make([][]query.Result, n)
	qerrs := make([]*QueryError, n)
	for i := 0; i < n && f.err == nil; i++ {
		switch tag := f.u8(); tag {
		case slotRefused:
			code := f.str()
			qerrs[i] = &QueryError{Code: code, Message: f.str()}
		case slotAnswer:
			if m := f.count(minRecordLen); m > 0 {
				rss[i] = make([]query.Result, m)
				for j := range rss[i] {
					f.record(&rss[i][j])
				}
			}
		default:
			f.fail("slot %d has tag %d", i, tag)
		}
	}
	if err := f.end(); err != nil {
		return nil, nil, err
	}
	return rss, qerrs, nil
}

func (f *frameReader) record(r *query.Result) {
	r.ID = f.str()
	r.Level = math.Float64frombits(f.u64())
	flags := f.u8()
	if flags&^flagsKnown != 0 {
		f.fail("record flags %#x", flags)
		return
	}
	r.Synthesized, r.Derived = flags&flagSynth != 0, flags&flagDerived != 0
	r.DonorID = f.str()
	r.Segment = f.str()
	r.Profile = resource.Profile{
		FLOPs:       int64(f.u64()),
		MemoryBytes: int64(f.u64()),
		LatencyMS:   math.Float64frombits(f.u64()),
	}
}
