package sommelier

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"sommelier/internal/query"
)

// The engine's core contract, checked over generated queries: every
// returned result satisfies the semantic threshold AND every resource
// constraint, results are sorted by the PICK criterion, and LIMIT is
// respected. One shared engine keeps the property check fast.
func TestPropertyQueryContract(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	refProf, ok := eng.Profile(refID)
	if !ok {
		t.Fatal("reference profile missing")
	}

	picks := []query.PickKind{
		query.PickMostSimilar, query.PickSmallest,
		query.PickFastest, query.PickCheapest, query.PickAll,
	}
	f := func(thrRaw uint8, memRaw uint16, flopsRaw uint16, pickRaw, limRaw uint8) bool {
		threshold := float64(thrRaw%101) / 100
		memPct := 10 + float64(memRaw%400)
		flopsPct := 10 + float64(flopsRaw%400)
		pick := picks[int(pickRaw)%len(picks)]
		limit := int(limRaw % 5)

		q := &query.Query{
			Ref:       refID,
			Threshold: threshold,
			Constraints: []query.Constraint{
				{Metric: query.MetricMemory, Op: query.OpLE, Value: memPct, Unit: query.UnitRelative},
				{Metric: query.MetricFLOPs, Op: query.OpLE, Value: flopsPct, Unit: query.UnitRelative},
			},
			Pick:  pick,
			Limit: limit,
		}
		results, err := eng.QueryASTContext(context.Background(), q)
		if err != nil {
			t.Logf("query error: %v", err)
			return false
		}
		if limit > 0 && len(results) > limit {
			return false
		}
		memCap := memPct / 100 * float64(refProf.MemoryBytes)
		flopsCap := flopsPct / 100 * float64(refProf.FLOPs)
		for i, r := range results {
			if r.Level < threshold {
				return false
			}
			if float64(r.Profile.MemoryBytes) > memCap || float64(r.Profile.FLOPs) > flopsCap {
				return false
			}
			if i == 0 {
				continue
			}
			prev := results[i-1]
			switch pick {
			case query.PickMostSimilar, query.PickAll:
				if r.Level > prev.Level {
					return false
				}
			case query.PickSmallest:
				if r.Profile.MemoryBytes < prev.Profile.MemoryBytes {
					return false
				}
			case query.PickFastest:
				if r.Profile.LatencyMS < prev.Profile.LatencyMS {
					return false
				}
			case query.PickCheapest:
				if r.Profile.FLOPs < prev.Profile.FLOPs {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Query and QueryAST must agree for any round-trippable query string.
func TestPropertyQueryStringEquivalence(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	f := func(thrRaw uint8, memRaw uint16) bool {
		threshold := int(thrRaw % 101)
		memPct := 10 + int(memRaw%300)
		qs := fmt.Sprintf("SELECT CORR %q WITHIN %d%% ON memory <= %d%% PICK most_similar",
			refID, threshold, memPct)
		viaString, err := eng.QueryContext(context.Background(), qs)
		if err != nil {
			return false
		}
		ast, err := query.Parse(qs)
		if err != nil {
			return false
		}
		viaAST, err := eng.QueryASTContext(context.Background(), ast)
		if err != nil {
			return false
		}
		if len(viaString) != len(viaAST) {
			return false
		}
		for i := range viaString {
			if viaString[i].ID != viaAST[i].ID || viaString[i].Level != viaAST[i].Level {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
