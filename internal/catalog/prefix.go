package catalog

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"sommelier/internal/cas"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/lru"
	"sommelier/internal/nn"
)

// An observation of a fine-tuned variant repeats work its base already
// did: a frozen trunk runs on the same probes to the same activations,
// and its weight matrices have the same cushions. The catalog keeps two
// memos of that work, keyed by content — by the tensor identities
// (cas.Identity) an entry carries — and never by model ID:
//
//   - the prefix memo maps a Merkle key over a model's layers up to a
//     cut (nn.Pass) to the cut's activations on a probe set, and a
//     fresh sweep resumes after the deepest cut it finds;
//   - the σ memo maps a W identity to its layer cushion, and a fresh
//     bound computes only the cushions it does not find.
//
// Both memos store a value only once its key has been seen on an
// earlier model, so a population whose models share no tensor never
// stores one; the seen table that decides it is a fixed array of key
// fingerprints. Since equal keys mean equal content, a resumed sweep
// and a memoized cushion give exactly the values the cold path does,
// and the evidence and the index are the same bit for bit.
const (
	// prefixBudget bounds the bytes of cut activations a catalog keeps:
	// about 170 cuts of a width-96 layer on 64 probes.
	prefixBudget = 8 << 20
	// sigmaEntries bounds the cushions a catalog keeps.
	sigmaEntries = 1 << 12
	// seenSlots is the size of the seen table. A fingerprint a later key
	// overwrote only delays a store to the next model that shares it.
	seenSlots = 1 << 12
)

// prefixKey names a model's layers up to a position, on a probe set:
// equal keys mean equal activations there.
type prefixKey [sha256.Size]byte

// memos is one catalog's prefix and σ memos.
type memos struct {
	mu    sync.Mutex
	acts  *lru.Cache[prefixKey, *nn.Activations] // guarded by mu
	sigma *lru.Cache[cas.TensorID, float64]      // guarded by mu
	seen  []uint64                               // guarded by mu; allocated on first use
}

func newMemos() *memos {
	return &memos{
		acts:  lru.NewSized[prefixKey](prefixBudget, func(a *nn.Activations) int64 { return int64(8 * len(a.Data)) }),
		sigma: lru.New[cas.TensorID, float64](sigmaEntries),
	}
}

// markSeen records a key's fingerprint and reports whether it was
// there already, from an earlier model. Callers hold mu.
func (m *memos) markSeen(key [sha256.Size]byte) bool {
	if m.seen == nil {
		m.seen = make([]uint64, seenSlots)
	}
	fp := binary.LittleEndian.Uint64(key[:]) | 1 // 0 marks an empty slot
	slot := &m.seen[fp%seenSlots]
	before := *slot == fp
	*slot = fp
	return before
}

// prefixPlan is one fresh sweep's use of the prefix memo: the nn.Pass
// it runs, and the keys of the cuts it keeps.
type prefixPlan struct {
	pass nn.Pass
	keep []prefixKey
}

// planPrefix looks up the deepest cut of exec's model on the probe set
// named probes that the memo holds, and chooses the cuts the sweep
// keeps: the deepest one past it that an earlier model shared, and the
// deepest shared one at most halfway there, so that a later sibling
// that leaves the trunk between the two still resumes part-way. It
// returns nil for a model without identity, which sweeps cold.
func (c *Catalog) planPrefix(exec *nn.Executor, ident cas.Identity, probes string) *prefixPlan {
	if ident == nil {
		return nil
	}
	cuts := exec.Cuts()
	keys := prefixKeys(exec, ident, probes, cuts)
	if len(keys) == 0 {
		return nil
	}
	m := c.memos
	m.mu.Lock()
	defer m.mu.Unlock()
	plan := new(prefixPlan)
	from := -1 // index into cuts of the cut the sweep resumes after
	for j := len(keys) - 1; j >= 0; j-- {
		if a, ok := m.acts.Get(keys[j]); ok {
			from, plan.pass.From, plan.pass.Resume = j, cuts[j], a
			break
		}
	}
	seen := make([]bool, len(keys))
	for j, k := range keys {
		seen[j] = m.markSeen(k)
	}
	// shared returns the deepest cut past from and before below that an
	// earlier model shared, at a position no later than upTo, or -1.
	shared := func(below, upTo int) int {
		for j := below - 1; j > from; j-- {
			if seen[j] && cuts[j] <= upTo {
				return j
			}
		}
		return -1
	}
	keep := func(j int) {
		plan.pass.Keep = append(plan.pass.Keep, cuts[j])
		plan.keep = append(plan.keep, keys[j])
	}
	if deep := shared(len(keys), math.MaxInt); deep >= 0 {
		keep(deep)
		// From is 0 on a cold sweep.
		if half := shared(deep, (plan.pass.From+cuts[deep])/2); half >= 0 {
			keep(half)
		}
	}
	if from >= 0 {
		c.m.prefixHits.Inc()
		c.m.prefixSkipped.Add(int64(plan.pass.From + 1))
	} else {
		c.m.prefixMisses.Inc()
	}
	return plan
}

// storePrefix keeps what a sweep that ran plan captured.
func (c *Catalog) storePrefix(plan *prefixPlan) {
	if len(plan.keep) == 0 {
		return
	}
	m := c.memos
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, key := range plan.keep {
		if a := plan.pass.Kept[i]; a.Data != nil {
			m.acts.Add(key, &a)
		}
	}
	c.m.prefixBytes.Set(m.acts.Size())
}

// cushions returns the σ memo's stand-in for equiv.LayerCushion over a
// model with identity ident, or nil (compute every cushion) without one.
func (c *Catalog) cushions(ident cas.Identity) func(*graph.Layer) float64 {
	if ident == nil {
		return nil
	}
	m := c.memos
	return func(l *graph.Layer) float64 {
		id, ok := paramID(ident, l, "W")
		if !ok {
			return equiv.LayerCushion(l)
		}
		m.mu.Lock()
		mu, hit := m.sigma.Get(id)
		seen := !hit && m.markSeen(id)
		m.mu.Unlock()
		if hit {
			c.m.sigmaHits.Inc()
			return mu
		}
		mu = equiv.LayerCushion(l)
		if seen {
			m.mu.Lock()
			m.sigma.Add(id, mu)
			m.mu.Unlock()
		}
		return mu
	}
}

// paramID returns the identity of l's parameter name, which ident
// lists in sorted parameter-name order.
func paramID(ident cas.Identity, l *graph.Layer, name string) (cas.TensorID, bool) {
	ids := ident[l.Name]
	if len(ids) != len(l.Params) || l.Params[name] == nil {
		return cas.TensorID{}, false
	}
	at := 0
	for other := range l.Params {
		if other < name {
			at++
		}
	}
	return ids[at], true
}

// prefixKeys returns the key of each cut (cuts are exec's) that ident
// covers, in order: a chain of SHA-256 over the probe set's name, the
// model's input shape and preprocessor, then per layer in exec's order
// its op, attributes, input positions and parameters' names and
// identities. The chain stops at the first layer whose parameters
// ident does not cover; a model without identity has no keys.
func prefixKeys(exec *nn.Executor, ident cas.Identity, probes string, cuts []int) []prefixKey {
	if ident == nil || len(cuts) == 0 {
		return nil
	}
	m := exec.Model()
	b := make([]byte, 0, 256)
	b = appendString(b, probes)
	b = appendString(b, m.Preprocessor)
	b = appendInts(b, m.InputShape)
	key := prefixKey(sha256.Sum256(b))
	keys := make([]prefixKey, 0, len(cuts))
	for i, l := range exec.Layers() {
		if len(keys) == len(cuts) {
			break
		}
		ids := ident[l.Name]
		if len(ids) != len(l.Params) {
			break
		}
		b = append(b[:0], key[:]...)
		b = appendString(b, string(l.Op))
		b = appendAttrs(b, l.Attrs)
		b = appendInts(b, exec.InputPositions(i))
		for j, name := range l.ParamNames() {
			b = appendString(b, name)
			b = append(b, ids[j][:]...)
		}
		key = sha256.Sum256(b)
		if i == cuts[len(keys)] {
			keys = append(keys, key)
		}
	}
	return keys
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// appendAttrs writes every field of graph.Attrs; TestAttrsKeyCoversEveryField
// fails when a field is added and not written here.
func appendAttrs(b []byte, a graph.Attrs) []byte {
	b = appendInts(b, []int{a.Units, a.InChannels, a.OutChannels, a.KernelH, a.KernelW, a.Stride, a.Pad, a.VocabSize, a.EmbedDim})
	for _, f := range []float64{a.Alpha, a.Rate, a.Eps} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}
