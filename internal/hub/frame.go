package hub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"sommelier/internal/query"
	"sommelier/internal/resource"
	"sommelier/internal/wire"
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

// frameReader consumes a frame. Over the frame's []byte, every string
// it reads is a copy: a decoded answer aliases nothing of the body.
type frameReader struct{ wire.Reader[[]byte] }

// end reports the first failure, or trailing bytes after a complete
// frame.
func (f *frameReader) end() error {
	if f.Err() == nil && f.Len() > 0 {
		return errTrailing
	}
	return f.Err()
}

// readQueries decodes a queries frame.
func readQueries(data []byte) ([]string, error) {
	f := frameReader{wire.NewReader(data, errFramePrefix)}
	qs := make([]string, f.Count(minQueryLen))
	for i := range qs {
		qs[i] = f.Str()
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
	f := frameReader{wire.NewReader(data, errFramePrefix)}
	n := f.Count(minSlotLen)
	if f.Err() == nil && n != want {
		return nil, nil, fmt.Errorf(errFramePrefix+"%d answers for %d queries", n, want)
	}
	rss := make([][]query.Result, n)
	qerrs := make([]*QueryError, n)
	for i := 0; i < n && f.Err() == nil; i++ {
		switch tag := f.U8(); tag {
		case slotRefused:
			code := f.Str()
			qerrs[i] = &QueryError{Code: code, Message: f.Str()}
		case slotAnswer:
			if m := f.Count(minRecordLen); m > 0 {
				rss[i] = make([]query.Result, m)
				for j := range rss[i] {
					f.record(&rss[i][j])
				}
			}
		default:
			f.Fail("slot %d has tag %d", i, tag)
		}
	}
	if err := f.end(); err != nil {
		return nil, nil, err
	}
	return rss, qerrs, nil
}

func (f *frameReader) record(r *query.Result) {
	r.ID = f.Str()
	r.Level = math.Float64frombits(f.U64())
	flags := f.U8()
	if flags&^flagsKnown != 0 {
		f.Fail("record flags %#x", flags)
		return
	}
	r.Synthesized, r.Derived = flags&flagSynth != 0, flags&flagDerived != 0
	r.DonorID = f.Str()
	r.Segment = f.Str()
	r.Profile = resource.Profile{
		FLOPs:       int64(f.U64()),
		MemoryBytes: int64(f.U64()),
		LatencyMS:   math.Float64frombits(f.U64()),
	}
}
