package catalog

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/resource"
)

// familyAnalyzer produces levels: models of one family (the digit before
// the '@' in "share-<n>@v1", mod 2) are equivalent at a level fixed by
// the pair, asymmetrically; models of different families are not
// equivalent at all. A commit therefore touches the lists of the new
// model's family and leaves the other families' alone.
type familyAnalyzer struct{}

func familyOf(id string) int { return int(id[len(id)-4]-'0') % 2 }

func (familyAnalyzer) Analyze(ref, cand index.Entry) (index.AnalysisResult, error) {
	if familyOf(ref.ID) != familyOf(cand.ID) {
		return index.AnalysisResult{}, nil
	}
	h := 0
	for _, c := range ref.ID + "~" + cand.ID {
		h = (h*31 + int(c)) % 1000
	}
	return index.AnalysisResult{
		LevelForRef:  0.5 + float64(h)/2500,
		LevelForCand: 0.5 + float64(h)/3000,
		SynthForRef:  []index.Candidate{{ID: ref.ID, Level: 0.45, Kind: index.KindSynthesized, DonorID: cand.ID, Segment: "s"}},
	}, nil
}

// frozenSnapshot is everything a Snapshot lets a reader see, copied out.
type frozenSnapshot struct {
	IDs      []string
	Lists    map[string][]index.Candidate
	Profiles map[string]resource.Profile
	Refs     map[string]string
}

func freeze(t *testing.T, s *Snapshot, tasks []string) frozenSnapshot {
	t.Helper()
	f := frozenSnapshot{
		IDs:      slices.Clone(s.IDs()),
		Lists:    make(map[string][]index.Candidate),
		Profiles: make(map[string]resource.Profile),
		Refs:     make(map[string]string),
	}
	if len(f.IDs) != s.Len() {
		t.Fatalf("IDs() has %d entries, Len() = %d", len(f.IDs), s.Len())
	}
	for _, id := range f.IDs {
		list, err := s.TopK(id, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		f.Lists[id] = slices.Clone(list)
		if p, ok := s.Profile(id); ok {
			f.Profiles[id] = p
		}
	}
	for _, task := range tasks {
		if id, ok := s.DefaultReference(task); ok {
			f.Refs[task] = id
		}
	}
	return f
}

// TestSnapshotsShareAndStayFrozen is the contract of publishing without
// copying. A seeded sequence of every kind of commit — Index,
// IndexBatch, Annotate, SetDefaultReference, Restore — runs against a
// level-producing analyzer; every snapshot published on the way is kept
// next to a deep copy taken when it was current.
//
// Isolation: after the last commit every kept snapshot still equals its
// copy — and every Export taken on the way still encodes to the same
// bytes — and readers that query the kept snapshots throughout (under
// -race) never see a list out of order, nor an Export, which takes no
// lock, that is not one snapshot whole.
//
// Sharing: a commit's snapshot holds, for every list the commit did not
// change, the very array the snapshot before it holds, and the very
// table when it changed none of a table's entries.
func TestSnapshotsShareAndStayFrozen(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	c := New(Config{Seed: 5, ValidationSize: 8, Workers: 2, Analyzer: familyAnalyzer{}})

	var pool []index.Entry
	byID := make(map[string]*graph.Model)
	for i := 0; i < 16; i++ {
		e := *testModel(t, fmt.Sprintf("share-%d", i), uint64(40+i))
		pool = append(pool, e)
		byID[e.ID] = e.Model
	}
	resolve := func(id string) (*graph.Model, error) { return byID[id], nil }
	tasks := []string{string(pool[0].Model.Task), "vision", "speech"}

	type kept struct {
		snap *Snapshot
		want frozenSnapshot
	}
	var (
		mu   sync.Mutex
		all  []kept
		done atomic.Bool
		wg   sync.WaitGroup
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				// Export takes no lock: it must still read one snapshot
				// whole, so every entry it lists has its footprint.
				sem, res, _ := c.Export()
				if len(sem.Entries) != len(res.Footprints) {
					t.Errorf("reader: export lists %d models and %d footprints", len(sem.Entries), len(res.Footprints))
					return
				}
				mu.Lock()
				snaps := slices.Clone(all)
				mu.Unlock()
				for _, k := range snaps {
					for _, id := range k.snap.IDs() {
						top, err := k.snap.TopK(id, 4)
						cut, err2 := k.snap.Lookup(id, 0.6)
						if err != nil || err2 != nil {
							t.Errorf("reader: %v, %v", err, err2)
							return
						}
						for _, list := range [][]index.Candidate{top, cut} {
							if !slices.IsSortedFunc(list, func(a, b index.Candidate) int {
								return cmp.Compare(b.Level, a.Level)
							}) {
								t.Errorf("reader saw %q's list out of order: %+v", id, list)
								return
							}
						}
					}
				}
			}
		}()
	}

	defer func() {
		done.Store(true)
		wg.Wait()
	}()

	arrayOf := func(l []index.Candidate) *index.Candidate { return unsafe.SliceData(l) }
	tableOf := func(m any) uintptr { return reflect.ValueOf(m).Pointer() }
	var sharedLists, replacedLists int
	// publish records the snapshot an operation left behind and, unless
	// the operation rebuilt everything, holds it to the sharing rule.
	publish := func(op string, prev *Snapshot, rebuilt, profilesChanged, refsChanged bool) {
		cur := c.Snapshot()
		mu.Lock()
		all = append(all, kept{cur, freeze(t, cur, tasks)})
		mu.Unlock()
		if rebuilt {
			return
		}
		for _, id := range prev.IDs() {
			before, _ := prev.TopK(id, math.MaxInt)
			after, _ := cur.TopK(id, math.MaxInt)
			if !slices.Equal(before, after) {
				replacedLists++
				continue
			}
			if len(before) > 0 {
				sharedLists++
			}
			if arrayOf(before) != arrayOf(after) {
				t.Fatalf("%s: %q's list did not change but was copied", op, id)
			}
		}
		if !profilesChanged && tableOf(prev.footprints) != tableOf(cur.footprints) {
			t.Fatalf("%s: footprint table copied though no footprint changed", op)
		}
		if !refsChanged && tableOf(prev.refs) != tableOf(cur.refs) {
			t.Fatalf("%s: default-reference table copied though no reference changed", op)
		}
	}

	type export struct {
		sem  index.SemanticSnapshot
		res  index.ResourceSnapshot
		refs map[string]string
		json []byte // as encoded when exported
	}
	encode := func(x export) []byte {
		data, err := json.Marshal([]any{x.sem, x.res, x.refs})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var exports []export
	for step := 0; step < 120; step++ {
		prev := c.Snapshot()
		ids := prev.IDs()
		var fresh []index.Entry // not indexed now: never offered, or forgotten by a Restore
		for _, i := range rng.Perm(len(pool)) {
			if !prev.Contains(pool[i].ID) {
				fresh = append(fresh, pool[i])
			}
		}
		switch op := rng.Intn(10); {
		case op < 4 && len(fresh) > 0:
			if err := c.Index(ctx, fresh[0].ID, fresh[0].Model); err != nil {
				t.Fatal(err)
			}
			publish("Index", prev, false, true, true)
		case op < 6 && len(fresh) > 0:
			if _, err := c.IndexBatch(ctx, fresh[:min(3, len(fresh))]); err != nil {
				t.Fatal(err)
			}
			publish("IndexBatch", prev, false, true, true)
		case op == 6 && len(ids) >= 2:
			pair := rng.Perm(len(ids))[:2]
			if err := c.Annotate(ids[pair[0]], map[string]float64{ids[pair[1]]: rng.Float64()}); err != nil {
				t.Fatal(err)
			}
			publish("Annotate", prev, false, false, false)
		case op == 7 && len(ids) >= 1:
			if err := c.SetDefaultReference(tasks[1+rng.Intn(2)], ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
			publish("SetDefaultReference", prev, false, false, true)
		case op == 8:
			x := export{}
			x.sem, x.res, x.refs = c.Export()
			x.json = encode(x)
			exports = append(exports, x)
		case op == 9 && len(exports) > 0:
			x := exports[rng.Intn(len(exports))]
			if err := c.Restore(x.sem, x.res, x.refs, resolve); err != nil {
				t.Fatal(err)
			}
			publish("Restore", prev, true, true, true)
		}
	}

	if len(all) < 20 || sharedLists == 0 || replacedLists == 0 {
		t.Fatalf("sequence too thin to mean anything: %d snapshots, %d lists shared, %d replaced",
			len(all), sharedLists, replacedLists)
	}
	for i, k := range all {
		got := freeze(t, k.snap, tasks)
		for _, id := range k.want.IDs {
			if !slices.Equal(got.Lists[id], k.want.Lists[id]) {
				t.Errorf("snapshot %d of %d: %q's list changed after it was published:\n got %+v\nwant %+v",
					i, len(all), id, got.Lists[id], k.want.Lists[id])
			}
		}
		if !reflect.DeepEqual(got, k.want) {
			t.Fatalf("snapshot %d of %d changed after it was published", i, len(all))
		}
	}
	for i, x := range exports {
		if !bytes.Equal(encode(x), x.json) {
			t.Fatalf("export %d changed after it was taken: it shares state with the catalog", i)
		}
	}
	t.Logf("%d snapshots; lists shared %d, replaced %d", len(all), sharedLists, replacedLists)
}
