package bench

import "testing"

func TestPopulationsAreDeterministic(t *testing.T) {
	gens := map[string]func(seed uint64) (*Population, error){
		"hub":        func(seed uint64) (*Population, error) { return HubPopulation(seed, 2, 2) },
		"fine-tuned": func(seed uint64) (*Population, error) { return FineTunedSeries(seed, 2, 4) },
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen(8)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: one seed gave digests %s and %s", name, a.Digest, b.Digest)
		}
		for i := range a.Digests {
			if a.Digests[i] != b.Digests[i] || a.IDs[i] != b.IDs[i] {
				t.Errorf("%s: model %d differs between two runs of one seed", name, i)
			}
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", name)
		}
	}
}

func TestHubPopulationShape(t *testing.T) {
	p, err := HubPopulation(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(p.Models), 2*3*rungs; got != want {
		t.Fatalf("%d models, want %d", got, want)
	}
	series := map[string]int{}
	var lo, hi int64
	for i, m := range p.Models {
		series[m.Metadata["series"]]++
		if b := p.EncodedBytes[i]; lo == 0 || b < lo {
			lo = b
		}
		hi = max(hi, p.EncodedBytes[i])
	}
	if len(series) != 6 {
		t.Errorf("%d series, want 6", len(series))
	}
	for s, n := range series {
		if n != rungs {
			t.Errorf("series %s has %d rungs, want %d", s, n, rungs)
		}
	}
	// The width ladder 40..128 must show in the sizes: the resource
	// constraints of the query mix select along it.
	if hi < 4*lo {
		t.Errorf("encoded sizes span only %d..%d bytes", lo, hi)
	}
}

func TestQueryMixIsDeterministicAndKeepsItsShares(t *testing.T) {
	refs := []string{"a@1", "b@1", "c@1", "d@1", "e@1"}
	const n = 4000
	a := NewQueryMix(3, refs, taskName, n)
	b := NewQueryMix(3, refs, taskName, n)
	c := NewQueryMix(4, refs, taskName, n)
	if a.Digest != b.Digest {
		t.Errorf("one seed gave digests %s and %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Error("seeds 3 and 4 gave the same query mix")
	}
	var got [numShapes]int
	for _, q := range a.Queries {
		got[q.Shape]++
	}
	for s, share := range shapeShare {
		if want := n * share / 100; got[s] != want {
			t.Errorf("shape %s: %d of %d queries, want %d", Shape(s), got[s], n, want)
		}
	}
}

func TestCanonicalQueriesIgnoreTheSeed(t *testing.T) {
	refs := []string{"a@1", "b@1"}
	qs := CanonicalQueries(refs, taskName)
	perRef := 1 + len(relBudgets) + len(absMemoryMB) + 2
	if want := len(thresholds) * (len(refs)*perRef + len(relBudgets)); len(qs) != want {
		t.Fatalf("%d canonical queries, want %d", len(qs), want)
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if seen[q.Text] {
			t.Errorf("duplicate canonical query %q", q.Text)
		}
		seen[q.Text] = true
	}
}
