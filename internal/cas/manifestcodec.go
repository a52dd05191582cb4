package cas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"sommelier/internal/graph"
	"sommelier/internal/wire"
)

// The manifest's binary form, the one every reader and writer uses: the
// pack record, the hub's manifest GET and PUT, a repository's manifest
// files. Every count and length is a uint32, big endian:
//
//	magic     "SOMXMF2\n" (the digit is ManifestFormat)
//	str       name, version, task, preprocessor, base ID
//	ints      input shape
//	strs      output labels
//	count     metadata pairs, then per pair: str key, str value
//	count     layers, then per layer:
//	  str     name, op
//	  strs    inputs
//	  attrs   uint16 mask, then per set bit, low bit first, the
//	          attribute: units, in/out channels, kernel h/w, stride,
//	          pad, vocab size, embed dim as int64; alpha, rate, eps as
//	          float64 bits. A bit is set exactly when its value is not 0
//	  count   params, then per param:
//	    str   name
//	    ints  shape
//	    tag   0 dense: addrs chunks | 1 delta: addrs base, addrs chunks
//
//	str    len, bytes     strs   count, then a str each
//	ints   count, then an int64 each
//	addrs  count, then 32 raw bytes each (a chunk address, unhexed)
//
// The form is canonical — one byte string per manifest, so whatever the
// decoder accepts re-encodes byte for byte: metadata keys and each
// layer's param names are strictly ascending (so unique), an attribute
// is present exactly when it is not zero, a tag is 0 or 1, and nothing
// follows the last layer. A count is checked against the bytes left
// before anything is sized from it.
const (
	manifestMagicStem = "SOMXMF"
	manifestMagic     = manifestMagicStem + "2\n"
	addrSize          = 32
	attrCount         = 12
	tagDense          = 0
	tagDelta          = 1
	minPairLen        = 2 * packLenSize
	minParamLen       = 3*packLenSize + 1
	minLayerLen       = 3*packLenSize + 2 + packLenSize
	errManifestPrefix = "cas: decoding manifest: "
)

// attrBits lists a layer's attributes in mask order, as the bits the
// form carries.
func attrBits(a *graph.Attrs) [attrCount]uint64 {
	return [attrCount]uint64{
		uint64(a.Units), uint64(a.InChannels), uint64(a.OutChannels),
		uint64(a.KernelH), uint64(a.KernelW), uint64(a.Stride), uint64(a.Pad),
		uint64(a.VocabSize), uint64(a.EmbedDim),
		math.Float64bits(a.Alpha), math.Float64bits(a.Rate), math.Float64bits(a.Eps),
	}
}

// attrsOf is attrBits' inverse.
func attrsOf(v *[attrCount]uint64) graph.Attrs {
	return graph.Attrs{
		Units: int(v[0]), InChannels: int(v[1]), OutChannels: int(v[2]),
		KernelH: int(v[3]), KernelW: int(v[4]), Stride: int(v[5]), Pad: int(v[6]),
		VocabSize: int(v[7]), EmbedDim: int(v[8]),
		Alpha: math.Float64frombits(v[9]), Rate: math.Float64frombits(v[10]), Eps: math.Float64frombits(v[11]),
	}
}

// manifestWriter appends a manifest's binary form. The first failure
// sticks, as frame readers' do.
type manifestWriter struct {
	b   []byte
	err error
}

func (w *manifestWriter) u32(n int) {
	if uint64(n) > math.MaxUint32 {
		if w.err == nil {
			w.err = fmt.Errorf("cas: encoding manifest: %d is past the uint32 count limit", n)
		}
		return
	}
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(n))
}

func (w *manifestWriter) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }

func (w *manifestWriter) str(s string) {
	w.u32(len(s))
	w.b = append(w.b, s...)
}

func (w *manifestWriter) strs(ss []string) {
	w.u32(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *manifestWriter) ints(vs []int) {
	w.u32(len(vs))
	for _, v := range vs {
		w.u64(uint64(v))
	}
}

// addrs appends a list of addresses Validate has passed: lowercase hex.
func (w *manifestWriter) addrs(hs []string) {
	w.u32(len(hs))
	for _, h := range hs {
		for i := 0; i < len(h); i += 2 {
			w.b = append(w.b, unhex(h[i])<<4|unhex(h[i+1]))
		}
	}
}

func unhex(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

// appendManifest appends m's binary form to b. A manifest that fails
// Validate is refused before anything is appended.
func appendManifest(b []byte, m *Manifest) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return b, err
	}
	w := manifestWriter{b: append(b, manifestMagic...)}
	for _, s := range [...]string{m.Name, m.Version, string(m.Task), m.Preprocessor, m.BaseID} {
		w.str(s)
	}
	w.ints(m.InputShape)
	w.strs(m.OutputLabels)
	keys := make([]string, 0, len(m.Metadata))
	for k := range m.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.u32(len(keys))
	for _, k := range keys {
		w.str(k)
		w.str(m.Metadata[k])
	}
	w.u32(len(m.Layers))
	for i := range m.Layers {
		l := &m.Layers[i]
		w.str(l.Name)
		w.str(string(l.Op))
		w.strs(l.Inputs)
		attrs := attrBits(&l.Attrs)
		var mask uint16
		for i, v := range attrs {
			if v != 0 {
				mask |= 1 << i
			}
		}
		w.b = binary.BigEndian.AppendUint16(w.b, mask)
		for _, v := range attrs {
			if v != 0 {
				w.u64(v)
			}
		}
		names := sortedParamNames(l.Params)
		w.u32(len(names))
		for _, name := range names {
			ref := l.Params[name]
			w.str(name)
			w.ints(ref.Shape)
			if ref.Delta == nil {
				w.b = append(w.b, tagDense)
				w.addrs(ref.Chunks)
			} else {
				w.b = append(w.b, tagDelta)
				w.addrs(ref.Delta.Base)
				w.addrs(ref.Delta.Chunks)
			}
		}
	}
	if w.err != nil {
		return b, w.err
	}
	return w.b, nil
}

// manifestReader consumes a manifest. It reads a string copy of the
// manifest's bytes, so every string it decodes is a slice of that one
// copy: one allocation for them all, and none aliases the caller's
// bytes.
type manifestReader struct{ wire.Reader[string] }

// strs decodes a string list; an empty one is nil.
func (r *manifestReader) strs() []string {
	n := r.Count(packLenSize)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// ints decodes an int list; an empty one is nil.
func (r *manifestReader) ints() []int {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.U64())
	}
	return out
}

// addrs decodes an address list into hex strings that share one
// backing string; an empty list is nil.
func (r *manifestReader) addrs() []string {
	n := r.Count(addrSize)
	if n == 0 {
		return nil
	}
	const digits = "0123456789abcdef"
	raw := r.Take(addrSize * n)
	var sb strings.Builder
	sb.Grow(2 * len(raw))
	for i := 0; i < len(raw); i++ {
		sb.WriteByte(digits[raw[i]>>4])
		sb.WriteByte(digits[raw[i]&0x0f])
	}
	all := sb.String()
	out := make([]string, n)
	for i := range out {
		out[i] = all[2*addrSize*i : 2*addrSize*(i+1)]
	}
	return out
}

// decodeManifest decodes and validates a manifest's binary form. The
// result aliases nothing of data.
func decodeManifest(data []byte) (*Manifest, error) {
	if err := manifestHeader(data); err != nil {
		return nil, err
	}
	r := manifestReader{wire.NewReader(string(data[len(manifestMagic):]), errManifestPrefix)}
	m := &Manifest{Format: ManifestFormat}
	m.Name, m.Version, m.Task = r.Str(), r.Str(), graph.TaskKind(r.Str())
	m.Preprocessor, m.BaseID = r.Str(), r.Str()
	m.InputShape = r.ints()
	m.OutputLabels = r.strs()
	if n := r.Count(minPairLen); n > 0 {
		m.Metadata = make(map[string]string, n)
		prev := ""
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.Str()
			if i > 0 && k <= prev {
				r.Fail("metadata key %q after %q: keys must be strictly ascending", k, prev)
			}
			m.Metadata[k] = r.Str()
			prev = k
		}
	}
	if n := r.Count(minLayerLen); n > 0 {
		m.Layers = make([]LayerRef, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			r.layer(&m.Layers[i])
		}
	}
	if r.Err() == nil && r.Len() > 0 {
		r.Fail("%d bytes after the manifest", r.Len())
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func (r *manifestReader) layer(l *LayerRef) {
	l.Name, l.Op = r.Str(), graph.OpKind(r.Str())
	l.Inputs = r.strs()
	mask := r.U16()
	if mask>>attrCount != 0 {
		r.Fail("layer %q attribute mask %#x", l.Name, mask)
		return
	}
	var attrs [attrCount]uint64
	for i := range attrs {
		if mask&(1<<i) == 0 {
			continue
		}
		if attrs[i] = r.U64(); attrs[i] == 0 && r.Err() == nil {
			r.Fail("layer %q attribute %d is present but zero", l.Name, i)
			return
		}
	}
	l.Attrs = attrsOf(&attrs)
	n := r.Count(minParamLen)
	if n == 0 {
		return
	}
	l.Params = make(map[string]TensorRef, n)
	prev := ""
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.Str()
		if i > 0 && name <= prev {
			r.Fail("layer %q param %q after %q: names must be strictly ascending", l.Name, name, prev)
			return
		}
		prev = name
		ref := TensorRef{Shape: r.ints()}
		switch tag := r.U8(); tag {
		case tagDense:
			ref.Chunks = r.addrs()
		case tagDelta:
			base := r.addrs()
			ref.Delta = &DeltaRef{Base: base, Chunks: r.addrs()}
		default:
			if r.Err() == nil {
				r.Fail("layer %q param %q has tag %d", l.Name, name, tag)
			}
		}
		l.Params[name] = ref
	}
}

// manifestHeader checks the magic, naming what it finds instead when
// that is a manifest of another format.
func manifestHeader(data []byte) error {
	switch {
	case bytes.HasPrefix(data, []byte(manifestMagic)):
		return nil
	case len(data) > 0 && data[0] == '{':
		return errJSONManifest
	case len(data) >= len(manifestMagic) && bytes.HasPrefix(data, []byte(manifestMagicStem)) &&
		data[len(manifestMagic)-1] == '\n':
		return fmt.Errorf("cas: unsupported manifest format %c", data[len(manifestMagicStem)])
	}
	return errors.New(errManifestPrefix + "bad or truncated magic")
}

// errJSONManifest names a format-1 manifest, which this build no longer
// reads.
var errJSONManifest = fmt.Errorf(errManifestPrefix+"a JSON manifest (format 1); this build reads format %d only", ManifestFormat)
