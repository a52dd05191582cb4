package sommelier

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sommelier/internal/index"
	"sommelier/internal/repo"
)

func TestSaveLoadIndexesRoundTrip(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	var buf bytes.Buffer
	if err := eng.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	// The same ladder's snapshot as written while semantic entries still
	// carried a sampled "fingerprint" member and the writer's "measured"
	// diffs, and the semantic object the "sample_size": still version 2,
	// the members are ignored, and it re-saves to the engine's own bytes.
	legacy, err := os.ReadFile("testdata/index_v2_fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, member := range []string{`"fingerprint":`, `"measured":`, `"sample_size":`} {
		if !bytes.Contains(legacy, []byte(member)) {
			t.Fatalf("testdata/index_v2_fingerprints.json lost its %s members", member)
		}
	}

	for _, in := range []struct {
		name string
		snap []byte
	}{{"saved", saved}, {"with-fingerprints", legacy}} {
		t.Run(in.name, func(t *testing.T) {
			// A fresh engine over the same repository, restored without
			// any re-analysis.
			eng2, err := NewEngine(eng.Store(), WithSeed(99))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng2.LoadIndexes(bytes.NewReader(in.snap)); err != nil {
				t.Fatal(err)
			}
			if eng2.IndexedLen() != eng.IndexedLen() {
				t.Fatalf("restored %d entries, want %d", eng2.IndexedLen(), eng.IndexedLen())
			}
			var again bytes.Buffer
			if err := eng2.SaveIndexes(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), saved) {
				t.Fatalf("re-saved snapshot differs from the engine's own:\n got %s\nwant %s", again.Bytes(), saved)
			}

			// Queries over the restored engine match the original exactly.
			q := `SELECT CORR "` + refID + `" WITHIN 50% PICK most_similar`
			orig, err := eng.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := eng2.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(orig) != len(restored) {
				t.Fatalf("result sizes differ: %d vs %d", len(orig), len(restored))
			}
			for i := range orig {
				if orig[i].ID != restored[i].ID || orig[i].Level != restored[i].Level {
					t.Fatalf("result %d differs: %+v vs %+v", i, orig[i], restored[i])
				}
			}
			// Task-default references survive.
			if _, err := eng2.QueryContext(context.Background(), `SELECT TASK classification WITHIN 50% PICK most_similar`); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLoadIndexesAfterRestoreCanRegisterMore(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	var buf bytes.Buffer
	if err := eng.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(eng.Store(), WithSeed(11), WithValidationSize(250))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.LoadIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	// Register a new model: the analyzer must be able to compare it
	// against restored (re-resolved) entries.
	m, err := eng2.Store().Load(refID)
	if err != nil {
		t.Fatal(err)
	}
	clone := m.Clone()
	clone.Name = "post-restore"
	id, err := eng2.RegisterContext(context.Background(), clone)
	if err != nil {
		t.Fatal(err)
	}
	top, err := eng2.TopEquivalents(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].Level < 0.8 {
		t.Fatalf("post-restore registration did not analyze against restored entries: %+v", top)
	}
}

func TestLoadIndexesErrors(t *testing.T) {
	eng, err := NewEngine(repo.NewInMemory())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadIndexes(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("expected version error")
	}
	if err := eng.LoadIndexes(strings.NewReader(`not json`)); err == nil {
		t.Fatal("expected decode error")
	}
	// Snapshot referencing a model absent from the repository.
	if err := eng.LoadIndexes(strings.NewReader(
		`{"version":2,"semantic":{"entries":[{"id":"ghost@1"}]},"resource":{"footprints":{}}}`,
	)); err == nil {
		t.Fatal("expected missing-model error")
	}
	// A version-1 snapshot holds default-setting profiles, which no
	// footprint can be recovered from: refused, with what to do instead.
	err = eng.LoadIndexes(strings.NewReader(
		`{"version":1,"semantic":{"entries":[]},"resource":{"profiles":{}}}`,
	))
	if err == nil || !strings.Contains(err.Error(), "re-index the models") {
		t.Fatalf("version-1 snapshot: err = %v, want the re-index message", err)
	}
	// A footprint with a negative count or latency is refused, and the
	// refused snapshot leaves SaveIndexes output as it was.
	var before bytes.Buffer
	if err := eng.SaveIndexes(&before); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{
		`{"FLOPs":-1,"ParamBytes":0,"PeakActivation":0,"LatencyNS":0}`,
		`{"FLOPs":0,"ParamBytes":-1,"PeakActivation":0,"LatencyNS":0}`,
		`{"FLOPs":0,"ParamBytes":0,"PeakActivation":-9223372036854775808,"LatencyNS":0}`,
		`{"FLOPs":0,"ParamBytes":0,"PeakActivation":0,"LatencyNS":-0.5}`,
	} {
		in := `{"version":2,"semantic":{"entries":[{"id":"m@1"}]},"resource":{"footprints":{"m@1":` + row + `}}}`
		if err := eng.LoadIndexes(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "negative or not finite") {
			t.Fatalf("footprint %s: err = %v, want a refusal", row, err)
		}
		var after bytes.Buffer
		if err := eng.SaveIndexes(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Bytes(), before.Bytes()) {
			t.Fatalf("the refused footprint %s changed the engine", row)
		}
	}
}

// FuzzLoadIndexes: LoadIndexes reads operator-supplied bytes at start-up.
// It never panics and never allocates more than a small multiple of what
// it was handed; a snapshot it accepts re-saves to bytes that load and
// save again unchanged, and answers every query shape without
// panicking — the mix's plain WITHIN shapes with exactly the records of
// the reference's list at or above the threshold that have a footprint,
// each record once, whatever order the list was in; a snapshot it
// rejects leaves the engine exactly as it was. Seeds: a real snapshot
// and TestLoadIndexesErrors' hostile cases, plus a footprint without an
// ID, a duplicated entry, footprints with negative fields, and the real
// snapshot with the reference's list reversed, with a record repeated
// and with a level of 2 and of −1.
func FuzzLoadIndexes(f *testing.F) {
	eng, refID, _ := newEngineWithLadder(f, false)
	var buf bytes.Buffer
	if err := eng.SaveIndexes(&buf); err != nil {
		f.Fatal(err)
	}
	snapshot := buf.Bytes()
	store := eng.Store()
	refs := []string{"ghost@1"}
	for _, md := range store.List() {
		// Loaded once here, so the store's cache, not LoadIndexes, pays
		// for hydration.
		if _, err := store.Load(md.ID); err != nil {
			f.Fatal(err)
		}
		refs = append(refs, md.ID)
	}
	f.Add(snapshot)
	for _, edit := range []func([]index.Candidate) []index.Candidate{
		func(l []index.Candidate) []index.Candidate { slices.Reverse(l); return l },
		func(l []index.Candidate) []index.Candidate { return append(l, l[0]) },
		func(l []index.Candidate) []index.Candidate { l[1].Level = 2; return l },
		func(l []index.Candidate) []index.Candidate { l[1].Level = -1; return l },
	} {
		var snap engineSnapshot
		if err := json.Unmarshal(snapshot, &snap); err != nil {
			f.Fatal(err)
		}
		ref := &snap.Semantic.Entries[0]
		if ref.ID != refID || len(ref.Candidates) < 2 {
			f.Fatalf("the ladder's first entry is %q with %d candidates", ref.ID, len(ref.Candidates))
		}
		ref.Candidates = edit(ref.Candidates)
		seed, err := json.Marshal(&snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	for _, s := range []string{
		`{"version":99}`,
		`not json`,
		`{"version":2,"semantic":{"entries":[{"id":"ghost@1"}]},"resource":{"footprints":{}}}`,
		`{"version":2,"semantic":{"entries":[]},"resource":{"footprints":{"":{}}}}`,
		`{"version":2,"semantic":{"entries":[{"id":"` + refID + `"},{"id":"` + refID + `"}]}}`,
		`{"version":1,"semantic":{"entries":[]},"resource":{"profiles":{}}}`,
		`{"version":2,"semantic":{"entries":[{"id":"` + refID + `"}]},"resource":{"footprints":{"` +
			refID + `":{"FLOPs":-1,"ParamBytes":4,"PeakActivation":8,"LatencyNS":1}}}}`,
		`{"version":2,"semantic":{"entries":[{"id":"` + refID + `"}]},"resource":{"footprints":{"` +
			refID + `":{"FLOPs":1,"ParamBytes":-4,"PeakActivation":-8,"LatencyNS":-1e308}}}}`,
		`{"version":2,"semantic":{"entries":[{"id":"` + refID + `"}]},"resource":{"footprints":{"` +
			refID + `":{"FLOPs":9223372036854775807,"ParamBytes":9223372036854775807,"PeakActivation":9223372036854775807,"LatencyNS":1.7976931348623157e308}}}}`,
	} {
		f.Add([]byte(s))
	}
	var queries []string
	for _, ref := range refs {
		for _, tail := range []string{
			"WITHIN 50% PICK most_similar",
			"WITHIN 50% ON memory <= 80% PICK smallest",
			"WITHIN 50% ON memory <= 1 GB AND latency < 30 ms PICK fastest LIMIT 2",
			"WITHIN 50% ON flops >= 10% AND flops <= 120% PICK cheapest",
			"WITHIN 50% EXEC batch=8 PICK smallest",
			"WITHIN 50%",
			"WITHIN 80%",
		} {
			queries = append(queries, fmt.Sprintf("SELECT CORR %q %s", ref, tail))
		}
	}
	queries = append(queries, "SELECT TASK classification WITHIN 50% PICK most_similar")
	saved := func(t *testing.T, e *Engine) []byte {
		var out bytes.Buffer
		if err := e.SaveIndexes(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		e, err := NewEngine(store, WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.LoadIndexes(bytes.NewReader(snapshot)); err != nil {
			t.Fatal(err)
		}
		before := saved(t, e)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err = e.LoadIndexes(bytes.NewReader(in))
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 256*uint64(len(in))+1<<20 {
			t.Fatalf("LoadIndexes allocated %d bytes for a %d-byte snapshot", grew, len(in))
		}
		if err != nil {
			if !bytes.Equal(saved(t, e), before) {
				t.Fatalf("a rejected snapshot (%v) changed the engine", err)
			}
			return
		}
		canon := saved(t, e)
		again, err := NewEngine(store, WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := again.LoadIndexes(bytes.NewReader(canon)); err != nil {
			t.Fatalf("the re-saved snapshot is rejected: %v", err)
		}
		if !bytes.Equal(saved(t, again), canon) {
			t.Fatal("an accepted snapshot does not re-save byte-identically")
		}
		// Errors are answers here; only a panic fails.
		ctx := context.Background()
		for _, q := range queries {
			_, _ = e.QueryContext(ctx, q)
		}
		_, _ = e.QueryBatchContext(ctx, queries)

		var snap engineSnapshot
		if err := json.NewDecoder(bytes.NewReader(in)).Decode(&snap); err != nil {
			t.Fatalf("an accepted snapshot does not decode: %v", err)
		}
		type key struct {
			id      string
			synth   bool
			segment string
		}
		for _, entry := range snap.Semantic.Entries {
			for _, pct := range []float64{50, 80} {
				want := map[key]float64{}
				for _, c := range entry.Candidates {
					if _, ok := snap.Resource.Footprints[c.ID]; ok && c.Level >= pct/100 {
						k := key{c.ID, c.Kind == index.KindSynthesized, c.Segment}
						want[k] = max(want[k], c.Level)
					}
				}
				q := fmt.Sprintf("SELECT CORR %q WITHIN %g%%", entry.ID, pct)
				got, err := e.QueryContext(ctx, q)
				if err != nil {
					continue // the reference itself has no footprint
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d answers, want %d: %+v", q, len(got), len(want), got)
				}
				for _, r := range got {
					k := key{r.ID, r.Synthesized, r.Segment}
					if lvl, ok := want[k]; !ok || lvl != r.Level {
						t.Fatalf("%s: answer %+v is not a best record of the list, or is answered twice", q, r)
					}
					delete(want, k)
				}
			}
		}
	})
}
