package sommelier

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sommelier/internal/catalog"
	"sommelier/internal/cluster"
	"sommelier/internal/index"
	"sommelier/internal/query"
	"sommelier/internal/repo"
	"sommelier/internal/resource"
)

// oracle answers a parsed query by the brute-force reading of §5.4 over
// all, every candidate of the reference: level ≥ threshold, every
// constraint by plain arithmetic on the profile, PICK order with ID
// tie-break, LIMIT. No thresholded index lookup, no LSH, no footprint
// arithmetic, no batch, no shard — every query path must return exactly
// this. profile
// supplies the profile a model is judged by (indexed, or measured under
// the query's EXEC setting).
func oracle(q *query.Query, all []index.Candidate, refProf resource.Profile,
	profile func(id string) (resource.Profile, bool)) []Result {
	scale := map[query.Unit]float64{query.UnitMB: 1 << 20, query.UnitGB: 1 << 30,
		query.UnitGFLOPs: 1e9, query.UnitTFLOPs: 1e12, query.UnitMS: 1, query.UnitNone: 1}
	var out []Result
	for _, c := range all {
		p, ok := profile(c.ID)
		if c.Level < q.Threshold || !ok {
			continue
		}
		keep := true
		for _, con := range q.Constraints {
			have, base := p.LatencyMS, refProf.LatencyMS
			switch con.Metric {
			case query.MetricMemory:
				have, base = float64(p.MemoryBytes), float64(refProf.MemoryBytes)
			case query.MetricFLOPs:
				have, base = float64(p.FLOPs), float64(refProf.FLOPs)
			}
			limit := con.Value * scale[con.Unit]
			if con.Unit == query.UnitRelative {
				limit = con.Value / 100 * base
			}
			keep = keep && map[query.CmpOp]bool{query.OpLT: have < limit, query.OpLE: have <= limit,
				query.OpGT: have > limit, query.OpGE: have >= limit,
				query.OpEQ: have >= limit*0.95 && have <= limit*1.05}[con.Op]
		}
		if keep {
			out = append(out, Result{ID: c.ID, Level: c.Level, Synthesized: c.Kind == index.KindSynthesized,
				DonorID: c.DonorID, Segment: c.Segment, Derived: c.Derived, Profile: p})
		}
	}
	key := func(r Result) float64 {
		return map[query.PickKind]float64{query.PickSmallest: float64(r.Profile.MemoryBytes),
			query.PickFastest: r.Profile.LatencyMS, query.PickCheapest: float64(r.Profile.FLOPs),
			query.PickMostSimilar: -r.Level, query.PickAll: -r.Level}[q.Pick]
	}
	sort.SliceStable(out, func(i, j int) bool {
		if ki, kj := key(out[i]), key(out[j]); ki != kj {
			return ki < kj
		}
		return out[i].ID < out[j].ID
	})
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// snapshotOracle is the oracle over one catalog snapshot.
func snapshotOracle(snap *catalog.Snapshot, q *query.Query, profile func(id string) (resource.Profile, bool)) []Result {
	ref := q.Ref
	if ref == "" {
		ref, _ = snap.DefaultReference(q.Task)
	}
	refProf, _ := profile(ref)
	all, _ := snap.Lookup(ref, 0)
	return oracle(q, all, refProf, profile)
}

// logUniform draws from [lo, hi] uniformly in log space — profiles and
// limits spread over decades, which is what small real zoos never do.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

var oracleRefs = []string{"ref0", "ref1", "ref2"}

// restoreSyntheticCatalog fills eng's catalog, with no models behind
// it, with the references' random candidate lists over models
// m<first>…m<first+n-1>: levels on a 1% grid (so ties and exact
// threshold hits occur), footprints log-spread over 1 MB–1 GB of
// parameters and 0.25–256 M activation elements, 1 MFLOP–1 TFLOP and
// 0.1 ms–1 s, every tenth model without one, and — when dups is set —
// some models listed twice (whole and synthesized).
func restoreSyntheticCatalog(t *testing.T, eng *Engine, seed int64, first, n int, dups bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	footprint := func() resource.Footprint {
		return resource.Footprint{
			ParamBytes:     int64(logUniform(rng, 1, 1024)) << 20,
			PeakActivation: int64(logUniform(rng, 1, 1024)) << 18,
			FLOPs:          int64(logUniform(rng, 1e6, 1e12)),
			LatencyNS:      logUniform(rng, 1e5, 1e9),
		}
	}
	var sem index.SemanticSnapshot
	res := index.ResourceSnapshot{Footprints: make(map[string]resource.Footprint)}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%03d", first+i)
		sem.Entries = append(sem.Entries, index.SemanticEntrySnapshot{ID: ids[i]})
		if i%10 != 7 {
			res.Footprints[ids[i]] = footprint()
		}
	}
	for _, ref := range oracleRefs {
		var cands []index.Candidate
		for _, id := range ids {
			if rng.Intn(4) == 0 {
				continue
			}
			cands = append(cands, index.Candidate{ID: id, Level: float64(rng.Intn(101)) / 100, Derived: rng.Intn(5) == 0})
			if dups && rng.Intn(8) == 0 {
				cands = append(cands, index.Candidate{ID: id, Level: float64(rng.Intn(101)) / 100,
					Kind: index.KindSynthesized, DonorID: ids[rng.Intn(n)], Segment: "seg"})
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].Level > cands[j].Level })
		sem.Entries = append(sem.Entries, index.SemanticEntrySnapshot{ID: ref, Candidates: cands})
		res.Footprints[ref] = footprint()
	}
	if err := eng.cat.Restore(sem, res, map[string]string{"classification": "ref0"}, nil); err != nil {
		t.Fatal(err)
	}
}

// randomQueries draws n queries against refs (and, with tasks, the
// default reference): all five operators, relative and absolute units,
// limits that sit exactly on some model's value, duplicate bounds and
// ranges, every PICK kind, LIMIT, and exec appended verbatim. Each is
// rendered and parsed, so string entry points (text) and AST entry
// points (ast) see the same query.
func randomQueries(t *testing.T, seed int64, n int, refs []string, tasks bool, exec string,
	profiles func(id string) (resource.Profile, bool), ids []string) []oracleQuery {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ops := []query.CmpOp{query.OpLT, query.OpLE, query.OpGT, query.OpGE, query.OpEQ}
	picks := []query.PickKind{query.PickMostSimilar, query.PickSmallest, query.PickFastest, query.PickCheapest, query.PickAll}
	constraint := func(op query.CmpOp) query.Constraint {
		if rng.Intn(3) == 0 {
			metric := []query.Metric{query.MetricMemory, query.MetricFLOPs, query.MetricLatency}[rng.Intn(3)]
			return query.Constraint{Metric: metric, Op: op, Value: math.Round(logUniform(rng, 1, 10000)), Unit: query.UnitRelative}
		}
		switch rng.Intn(4) {
		case 0: // exactly some model's memory, so < and <= differ
			if p, ok := profiles(ids[rng.Intn(len(ids))]); ok {
				return query.Constraint{Metric: query.MetricMemory, Op: op, Value: float64(p.MemoryBytes >> 20), Unit: query.UnitMB}
			}
			fallthrough
		case 1:
			return query.Constraint{Metric: query.MetricMemory, Op: op, Value: math.Round(logUniform(rng, 1, 2048)), Unit: query.UnitMB}
		case 2:
			return query.Constraint{Metric: query.MetricFLOPs, Op: op, Value: logUniform(rng, 0.001, 2000), Unit: query.UnitGFLOPs}
		}
		return query.Constraint{Metric: query.MetricLatency, Op: op, Value: logUniform(rng, 0.1, 1000), Unit: query.UnitMS}
	}
	out := make([]oracleQuery, n)
	for i := range out {
		q := &query.Query{Ref: refs[rng.Intn(len(refs))], Threshold: float64(rng.Intn(101)) / 100,
			Pick: picks[rng.Intn(len(picks))], Limit: []int{0, 0, 1, 3, 10}[rng.Intn(5)]}
		if tasks && rng.Intn(8) == 0 {
			q.Ref, q.Task = "", "classification"
		}
		for k := rng.Intn(3); k > 0; k-- {
			c := constraint(ops[rng.Intn(len(ops))])
			q.Constraints = append(q.Constraints, c)
			switch rng.Intn(4) {
			case 0: // duplicate bound on the same metric
				d := c
				d.Value = c.Value * []float64{0.5, 2}[rng.Intn(2)]
				q.Constraints = append(q.Constraints, d)
			case 1: // range
				lo, hi := c, c
				lo.Op, lo.Value, hi.Op = query.OpGE, c.Value/8, query.OpLE
				q.Constraints = append(q.Constraints[:len(q.Constraints)-1], lo, hi)
			}
		}
		text := q.String() + exec
		ast, err := query.Parse(text)
		if err != nil {
			t.Fatalf("generated query %q does not parse: %v", text, err)
		}
		out[i] = oracleQuery{text, ast}
	}
	return out
}

type oracleQuery struct {
	text string
	ast  *query.Query
}

// oracleReport counts per-path disagreements with the oracle and prints
// the first few of each, so a lossy path shows its scale, not one line.
type oracleReport struct {
	t     *testing.T
	total int
	bad   map[string]int
}

func (r *oracleReport) check(path string, q oracleQuery, got, want []Result) {
	r.t.Helper()
	r.total++
	if len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want) {
		return
	}
	if r.bad[path]++; r.bad[path] <= 3 {
		r.t.Errorf("%s disagrees with the oracle on %s\n got %d: %v\nwant %d: %v",
			path, q.text, len(got), resultIDs(got), len(want), resultIDs(want))
	}
}

func (r *oracleReport) summary() {
	paths := make([]string, 0, len(r.bad))
	for path := range r.bad {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		r.t.Errorf("%s: %d answers differ from the oracle (%d checks over all paths)", path, r.bad[path], r.total)
	}
}

func resultIDs(rs []Result) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

// checkAgainstOracle runs qs through every in-process entry point and
// compares each answer with the oracle's.
func checkAgainstOracle(t *testing.T, eng *Engine, qs []oracleQuery,
	profileFor func(q *query.Query) func(id string) (resource.Profile, bool)) {
	t.Helper()
	ctx := context.Background()
	snap := eng.cat.Snapshot()
	rep := &oracleReport{t: t, bad: make(map[string]int)}
	want := make([][]Result, len(qs))
	asts := make([]*query.Query, len(qs))
	for i, q := range qs {
		asts[i] = q.ast
		want[i] = snapshotOracle(snap, q.ast, profileFor(q.ast))
		got, err := eng.QueryASTContext(ctx, q.ast)
		if err != nil {
			t.Fatalf("QueryASTContext(%s): %v", q.text, err)
		}
		rep.check("QueryASTContext", q, got, want[i])
		exp, err := eng.ExplainContext(ctx, q.text)
		if err != nil {
			t.Fatalf("ExplainContext(%s): %v", q.text, err)
		}
		rep.check("ExplainContext", q, exp.Results, want[i])
	}
	for _, workers := range []int{1, 4} {
		eng.cfg.queryWorkers = workers
		got, errs := eng.QueryBatchASTContext(ctx, asts)
		for i, q := range qs {
			if errs[i] != nil {
				t.Fatalf("QueryBatchASTContext(%s): %v", q.text, errs[i])
			}
			rep.check(fmt.Sprintf("QueryBatchASTContext/workers=%d", workers), q, got[i], want[i])
		}
	}
	rep.summary()
}

// TestQueryPathsMatchOracle is the differential pin for ROADMAP item 1:
// indexes, batching and Explain may only make answers faster, never
// different. The synthetic catalog's profiles spread over three
// decades, where a similarity prefilter in front of stage 2 loses
// feasible models (it did: this test fails at the commit before the
// prefilter was removed).
func TestQueryPathsMatchOracle(t *testing.T) {
	eng, err := NewEngine(repo.NewInMemory(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	restoreSyntheticCatalog(t, eng, 1, 0, 120, true)
	snap := eng.cat.Snapshot()
	qs := randomQueries(t, 2, 300, oracleRefs, true, "", snap.Profile, snap.IDs())
	checkAgainstOracle(t, eng, qs, func(*query.Query) func(string) (resource.Profile, bool) { return snap.Profile })
}

// TestExecQueryPathsMatchOracle covers EXEC on real models: the oracle
// judges every candidate by a profile it measures itself, straight from
// the store, under the query's setting.
func TestExecQueryPathsMatchOracle(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	snap := eng.cat.Snapshot()
	var qs []oracleQuery
	for i, exec := range []string{" EXEC batch=4", " EXEC batch=16 precision=fp16", " EXEC overhead=0.5"} {
		qs = append(qs, randomQueries(t, int64(10+i), 40, []string{refID}, false, exec, snap.Profile, snap.IDs())...)
	}
	checkAgainstOracle(t, eng, qs, func(q *query.Query) func(string) (resource.Profile, bool) {
		setting, err := execSetting(q.Exec)
		if err != nil {
			t.Fatal(err)
		}
		return func(id string) (resource.Profile, bool) {
			m, err := eng.store.Load(id)
			if err != nil {
				t.Fatal(err)
			}
			p, err := resource.NewProfiler(nil).MeasureWith(m, setting)
			if err != nil {
				t.Fatal(err)
			}
			return p, true
		}
	})
}

// TestCoordinatorMatchesUnionOracle: two shards hold the same
// references with disjoint candidates; the coordinator's merged answer
// must be the oracle's answer over the union.
func TestCoordinatorMatchesUnionOracle(t *testing.T) {
	var engs []*Engine
	var backends [][]cluster.QueryBackend
	for shard := 0; shard < 2; shard++ {
		rep, err := NewEngineReplica(1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		restoreSyntheticCatalog(t, rep.Engine(), 5, shard*60, 60, false)
		engs = append(engs, rep.Engine())
		backends = append(backends, []cluster.QueryBackend{rep})
	}
	coord, err := cluster.NewCoordinator(backends)
	if err != nil {
		t.Fatal(err)
	}
	// Both shards were restored from one seed, so a reference's profile
	// — what relative limits resolve against — is the same on each.
	snaps := []*catalog.Snapshot{engs[0].cat.Snapshot(), engs[1].cat.Snapshot()}
	anyProfile := func(id string) (resource.Profile, bool) {
		if p, ok := snaps[0].Profile(id); ok {
			return p, ok
		}
		return snaps[1].Profile(id)
	}
	ids := append(snaps[0].IDs(), snaps[1].IDs()...)
	rep := &oracleReport{t: t, bad: make(map[string]int)}
	for _, q := range randomQueries(t, 6, 200, oracleRefs, false, "", anyProfile, ids) {
		var union []index.Candidate
		for _, snap := range snaps {
			all, err := snap.Lookup(q.ast.Ref, 0)
			if err != nil {
				t.Fatal(err)
			}
			union = append(union, all...)
		}
		refProf, _ := anyProfile(q.ast.Ref)
		want := oracle(q.ast, union, refProf, anyProfile)
		resp, err := coord.Query(context.Background(), q.text)
		if err != nil {
			t.Fatalf("Coordinator.QueryContext(context.Background(), %s): %v", q.text, err)
		}
		if !resp.Complete() {
			t.Fatalf("Coordinator.QueryContext(context.Background(), %s): incomplete response %+v", q.text, resp)
		}
		got := make([]Result, len(resp.Results))
		for i, r := range resp.Results {
			got[i] = Result(r)
		}
		rep.check("Coordinator.Query", q, got, want)
	}
	rep.summary()
}
