package hub

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sommelier/internal/query"
	"sommelier/internal/resource"
)

// frameFixture is one set of answers the results frame must carry
// exactly, slot by slot.
type frameFixture struct {
	name  string
	rss   [][]query.Result
	qerrs []*QueryError
}

// frameFixtures: an empty answer, a refusal, records with every field
// set (synthesized, derived, donor, segment, floats no JSON number
// holds), and a 64-query batch mixing the three.
func frameFixtures() []frameFixture {
	every := []query.Result{
		{ID: "base@1", Level: math.Nextafter(0.3, 1), Synthesized: true, DonorID: "donor@2",
			Segment: "dense_0..relu_3", Derived: true,
			Profile: resource.Profile{FLOPs: math.MaxInt64, MemoryBytes: -1, LatencyMS: math.Inf(1)}},
		{ID: "plain@1", Level: math.Copysign(0, -1), Profile: resource.Profile{LatencyMS: math.NaN()}},
	}
	batch := frameFixture{name: "64-query batch", rss: make([][]query.Result, 64), qerrs: make([]*QueryError, 64)}
	for i := range batch.qerrs {
		switch i % 4 {
		case 0:
			batch.qerrs[i] = &QueryError{Message: fmt.Sprintf("query %d refused", i), Code: CodeUnknownReference}
		case 1: // answered, no results
		default:
			for j := 0; j <= i%7; j++ {
				batch.rss[i] = append(batch.rss[i], query.Result{ID: fmt.Sprintf("m%02d-%d@1", i, j), Level: 1 / float64(j+2),
					Profile: resource.Profile{FLOPs: int64(i) << 20, MemoryBytes: int64(j) << 10, LatencyMS: float64(i) / 7}})
			}
		}
	}
	return []frameFixture{
		{"empty answer", [][]query.Result{nil}, []*QueryError{nil}},
		{"refusal", [][]query.Result{nil}, []*QueryError{{Message: "sommelier: indexed model has no resource profile"}}},
		{"every field", [][]query.Result{every}, []*QueryError{nil}},
		batch,
	}
}

// sameResults compares two answers field for field, floats by their
// bits.
func sameResults(a, b []query.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.ID != y.ID || x.Synthesized != y.Synthesized || x.DonorID != y.DonorID ||
			x.Segment != y.Segment || x.Derived != y.Derived ||
			x.Profile.FLOPs != y.Profile.FLOPs || x.Profile.MemoryBytes != y.Profile.MemoryBytes ||
			math.Float64bits(x.Level) != math.Float64bits(y.Level) ||
			math.Float64bits(x.Profile.LatencyMS) != math.Float64bits(y.Profile.LatencyMS) {
			return false
		}
	}
	return true
}

// TestFrameRoundTrip: every fixture decodes to exactly what was encoded
// — floats compared by their bits — and re-encodes to the same bytes; a
// queries frame round-trips the same way.
func TestFrameRoundTrip(t *testing.T) {
	for _, fx := range frameFixtures() {
		frame := appendResults(nil, fx.rss, fx.qerrs)
		rss, qerrs, err := readResults(frame, len(fx.qerrs))
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		for i, want := range fx.qerrs {
			got := qerrs[i]
			if (got == nil) != (want == nil) || want != nil && *got != *want || want == nil && !sameResults(rss[i], fx.rss[i]) {
				t.Fatalf("%s slot %d: got %+v / %v, want %+v / %v", fx.name, i, rss[i], got, fx.rss[i], want)
			}
		}
		if again := appendResults(nil, rss, qerrs); !bytes.Equal(again, frame) {
			t.Fatalf("%s: re-encoded frame differs", fx.name)
		}
	}
	qs := []string{"", `SELECT CORR "a@1" WITHIN 50%`, strings.Repeat("é", 300)}
	if got, err := readQueries(appendQueries(nil, qs)); err != nil || !slices.Equal(got, qs) {
		t.Fatalf("queries frame: got %q, %v; want %q", got, err, qs)
	}
}

// TestReadFrameRejects: the decoders read bytes from the network. Every
// truncation, every count or length past the bytes behind it, a slot
// count that is not the query count, an unknown tag or flag and
// trailing bytes are rejected, and nothing is sized from a count first.
func TestReadFrameRejects(t *testing.T) {
	// valid: slots [0,4), tag 4, count [5,9), ID length [9,13), ID
	// [13,16), Level [16,24), flags 24, then donor, segment, profile.
	valid := appendResults(nil, [][]query.Result{{{ID: "a@1", Level: 0.5, DonorID: "d", Segment: "s"}}}, []*QueryError{nil})
	refusal := appendResults(nil, [][]query.Result{nil}, []*QueryError{{Code: "c", Message: "m"}})
	patch := func(b []byte, at int, v ...byte) []byte {
		c := bytes.Clone(b)
		copy(c[at:], v)
		return c
	}
	u32 := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	for _, tc := range []struct {
		name string
		in   []byte
		want int
		err  string
	}{
		{"empty", nil, 1, "truncated"},
		{"truncated slot count", valid[:3], 1, "truncated"},
		{"slot count past the bytes", patch(valid, 0, u32(1<<30)...), 1 << 30, "declared"},
		{"slot count is not the query count", valid, 2, "1 answers for 2 queries"},
		{"unknown slot tag", patch(valid, 4, 7), 1, "tag 7"},
		{"result count past the bytes", patch(valid, 5, u32(1000)...), 1, "declared"},
		{"ID past the bytes", patch(valid, 9, u32(1000)...), 1, "string of 1000 bytes"},
		{"unknown flag bits", patch(valid, 24, 4), 1, "flags"},
		{"truncated record", valid[:len(valid)-1], 1, "truncated"},
		{"trailing bytes", append(bytes.Clone(valid), 0), 1, "trailing"},
		{"truncated refusal", refusal[:len(refusal)-1], 1, "string of 1 bytes"},
	} {
		if _, _, err := readResults(tc.in, tc.want); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.err)
		}
	}
	qvalid := appendQueries(nil, []string{"ab", "c"})
	for _, tc := range []struct {
		name string
		in   []byte
		err  string
	}{
		{"empty", nil, "truncated"},
		{"count past the bytes", patch(qvalid, 0, u32(1<<31)...), "declared"},
		{"query past the bytes", patch(qvalid, 4, u32(99)...), "string of 99 bytes"},
		{"truncated query", qvalid[:len(qvalid)-1], "string of 1 bytes"},
		{"trailing bytes", append(bytes.Clone(qvalid), 'x'), "trailing"},
	} {
		if _, err := readQueries(tc.in); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("queries, %s: err = %v, want mention of %q", tc.name, err, tc.err)
		}
	}
}

// allocated reports the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadResults: readResults never panics on arbitrary bytes, never
// allocates more than a small multiple of what it was handed, and a
// frame it accepts re-encodes byte for byte.
func FuzzReadResults(f *testing.F) {
	for _, fx := range frameFixtures() {
		f.Add(appendResults(nil, fx.rss, fx.qerrs), len(fx.qerrs))
	}
	f.Add([]byte{0, 0, 0, 1, 9}, 1)
	f.Add([]byte(`{"results":[[]],"errors":[null]}`), 1)
	f.Fuzz(func(t *testing.T, in []byte, want int) {
		var (
			rss   [][]query.Result
			qerrs []*QueryError
			err   error
		)
		if grew := allocated(func() { rss, qerrs, err = readResults(in, want) }); grew > 64*uint64(len(in))+1<<20 {
			t.Fatalf("readResults allocated %d bytes for a %d-byte frame", grew, len(in))
		}
		if err != nil {
			return
		}
		if again := appendResults(nil, rss, qerrs); !bytes.Equal(again, in) {
			t.Fatalf("an accepted frame re-encodes differently:\n in    %x\n again %x", in, again)
		}
	})
}

// FuzzReadQueries: the same contract for the queries frame a hub reads
// from every batch POST.
func FuzzReadQueries(f *testing.F) {
	qs := make([]string, 64)
	for i := range qs {
		qs[i] = fmt.Sprintf(`SELECT CORR "m%02d@1" WITHIN 50%% PICK most_similar`, i)
	}
	f.Add(appendQueries(nil, qs))
	f.Add(appendQueries(nil, nil))
	f.Add([]byte("\x00\x00\x00\x05junk"))
	f.Add([]byte(`{"queries":["a"]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		var (
			got []string
			err error
		)
		if grew := allocated(func() { got, err = readQueries(in) }); grew > 64*uint64(len(in))+1<<20 {
			t.Fatalf("readQueries allocated %d bytes for a %d-byte frame", grew, len(in))
		}
		if err != nil {
			return
		}
		if again := appendQueries(nil, got); !bytes.Equal(again, in) {
			t.Fatalf("an accepted frame re-encodes differently:\n in    %x\n again %x", in, again)
		}
	})
}
