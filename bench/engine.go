package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sommelier"
	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/query"
	"sommelier/internal/repo"
	"sommelier/internal/resource"
)

// Config is one run of one workload.
type Config struct {
	Workload string
	// Seed drives the query mix: which models are popular when, and
	// each arrival's shape, threshold and budgets. The model corpus is
	// the same on every run (CorpusSeed), as a hub's content is: only
	// then do the byte and allocation counts repeat.
	Seed uint64
	// Seconds is how long the run measures: phases over a fixed input
	// (bulk indexing, registers, churn rounds) take what they take, and
	// the repeatable phases (queries, batches, loads) share the rest.
	Seconds float64
	// Scale multiplies the population sizes. It is set in code only, by
	// the traced run and the smoke tests; 0 means 1, the benchmark: numbers
	// at another scale do not compare with it.
	Scale float64
	Trace bool
	// TmpDir is where disk-backed repositories go.
	TmpDir string
}

// CorpusSeed generates every model population and seeds every engine.
const CorpusSeed = 2022

const (
	validationSize = 64
	queryBatch     = 64
	mixLen         = 1 << 16
	// wireModels is how many of the workload's models, in publish order,
	// the wire-cost pass uploads to a fresh hub.
	wireModels = 64
	taskName   = string(graph.TaskClassification)
)

// engineSizing shapes one in-process workload over a hub population of
// trunks × series × 6 models.
type engineSizing struct {
	trunks, series int
	// indexBatch models go into each IndexAllContext call; bulkShare of
	// the population is indexed that way, churnShare by the churn
	// writer, the rest one by one through RegisterContext.
	indexBatch            int
	bulkShare, churnShare float64
	// query, batch and load are the turns each serving phase gets per
	// round of the serving stage: its share of that stage's time.
	query, batch, load int
	// disk measures loads cold from a directory-backed repository
	// instead of hydrating from the in-memory chunk store.
	disk bool
}

// engineSizings holds the three in-process workloads, at about half of
// ISSUE.md's populations so that a run fits the contract's time cap
// (see README.md).
var engineSizings = map[string]engineSizing{
	// Indexing and storage do nearly all the work: 288 models, 240 in
	// bulk batches of 8, 48 registered one by one, loads cold from disk.
	"ingest": {trunks: 6, series: 8, indexBatch: 8, bulkShare: 5.0 / 6, query: 2, batch: 1, load: 2, disk: true},
	// The query path does nearly all the work, over a static 144-model
	// snapshot: indexing is the shortest that still gives its two
	// metrics their sample floors.
	"query_mix": {trunks: 4, series: 6, indexBatch: 4, bulkShare: 2.0 / 3, query: 4, batch: 2, load: 1},
	// A 96-model base, then a writer registering the other 144 while a
	// reader queries: every register publishes a new snapshot.
	"churn": {trunks: 5, series: 8, indexBatch: 4, bulkShare: 0.4, churnShare: 0.6, batch: 2, load: 1},
}

const churnRound = 8

// shape resolves the sizing to trunks and series at a scale.
func (sz engineSizing) shape(scale float64) (trunks, series int) {
	series = max(int(float64(sz.series)*scale+0.5), 1)
	trunks = sz.trunks
	if scale < 1 {
		trunks = max(int(float64(sz.trunks)*scale+0.5), 2)
	}
	return trunks, series
}

// counts resolves the sizing to model counts at a scale.
func (sz engineSizing) counts(scale float64) (total, bulk, register, churn int) {
	trunks, series := sz.shape(scale)
	total = trunks * series * rungs
	bulk = max(int(float64(total)*sz.bulkShare)/sz.indexBatch, 1) * sz.indexBatch
	churn = int(float64(total)*sz.churnShare) / churnRound * churnRound
	if bulk+churn > total {
		churn = (total - bulk) / churnRound * churnRound
	}
	return total, bulk, total - bulk - churn, churn
}

// engineFixture is what set-up produces for an in-process workload.
type engineFixture struct {
	pop   *Population
	mix   *QueryMix
	store *repo.Repository
	eng   *sommelier.Engine
	// defaultRef answers the task-shaped queries.
	defaultRef string
	dir        string
}

func (f *engineFixture) close() {
	if f != nil && f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

func newEngine(store sommelier.Store) (*sommelier.Engine, error) {
	return sommelier.NewEngine(store, sommelier.WithSeed(CorpusSeed), sommelier.WithValidationSize(validationSize))
}

// setupEngine is the whole set-up of an in-process workload: the
// population and its digests, the query mix, the repository, the
// engine and the scratch directory.
func setupEngine(cfg Config, sz engineSizing) (*engineFixture, error) {
	trunks, series := sz.shape(cfg.Scale)
	pop, err := HubPopulation(CorpusSeed, trunks, series)
	if err != nil {
		return nil, err
	}
	_, bulk, _, churn := sz.counts(cfg.Scale)
	// While the churn writer runs, only the bulk-indexed base is sure
	// to be queryable.
	refs := pop.IDs
	if churn > 0 {
		refs = pop.IDs[:bulk]
	}
	f := &engineFixture{pop: pop, defaultRef: refs[0]}
	f.mix = NewQueryMix(cfg.Seed, refs, taskName, mixLen)
	f.store = repo.NewInMemory()
	if f.eng, err = newEngine(f.store); err != nil {
		return nil, err
	}
	if sz.disk {
		if f.dir, err = os.MkdirTemp(cfg.TmpDir, "sommperf-*"); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// setupRuns is how often a run sets up: the reported set-up time is the
// median, and every repeat must generate the same inputs.
const setupRuns = 5

// runSetup runs setup setupRuns times, keeps the last fixture, checks
// that every run generated the same inputs, and reports the median
// speed-corrected set-up time.
func runSetup[F any](h *Harness, rep *Report, setup func() (F, string, error), drop func(F)) (F, error) {
	var fx F
	var digest string
	have := false
	s, err := h.Run(Spec{Name: "setup", ChunkOps: 1, MaxOps: setupRuns}, 0, func(i int) (time.Duration, error) {
		if have {
			drop(fx)
		}
		start := time.Now()
		f, d, err := setup()
		took := time.Since(start)
		if err != nil {
			return 0, err
		}
		if have {
			h.Check("generator_deterministic", d == digest, "input digest %s, earlier run gave %s", d, digest)
		}
		fx, digest, have = f, d, true
		return took, nil
	})
	if err != nil {
		return fx, err
	}
	rep.Set("setup_s", s.P50(), "s")
	rep.Set("raw.setup_s", s.RawP50(), "s")
	return fx, nil
}

// servingBudget is the time the serving stage gets: what the run's
// earlier stages left of Seconds, but never less than floor, or a
// quarter of Seconds if that is less.
func servingBudget(cfg Config, measureStart time.Time, floor time.Duration) time.Duration {
	total := time.Duration(cfg.Seconds * float64(time.Second))
	return max(total-time.Since(measureStart), min(floor, total/4))
}

// runEngineWorkload runs ingest, query_mix or churn: publish → index →
// query → load against one engine over an in-memory repository, one
// client, closed loop.
func runEngineWorkload(ctx context.Context, cfg Config, h *Harness) (*Report, error) {
	sz := engineSizings[cfg.Workload]
	rep := newReport(cfg)
	runStart := time.Now()

	fx, err := runSetup(h, rep, func() (*engineFixture, string, error) {
		f, err := setupEngine(cfg, sz)
		if err != nil {
			return nil, "", err
		}
		return f, f.pop.Digest + f.mix.Digest, nil
	}, (*engineFixture).close)
	defer fx.close()
	if err != nil {
		return nil, err
	}
	total, nBulk, nRegister, nChurn := sz.counts(cfg.Scale)
	pop, eng, store, mix := fx.pop, fx.eng, fx.store, fx.mix
	rep.Notef("population %d models (%d bulk in batches of %d, %d registered, %d churned), %d user bytes",
		total, nBulk, sz.indexBatch, nRegister, nChurn, pop.UserBytes(0, total))
	measureStart := time.Now()

	// Indexing stage. Bulk path: publish a batch, then one
	// IndexAllContext over it. Front door: publish+index one model.
	// The two take turns so that both see the whole stage.
	var indexAlloc uint64
	nBatches := nBulk / sz.indexBatch
	bulkOp := func(i int) (time.Duration, error) {
		op := h.tr.NewOp()
		root := h.tr.Start("op.bulk_index", -1, op)
		sp := h.tr.Start("repo.publish", root, op)
		for _, m := range pop.Models[i*sz.indexBatch : (i+1)*sz.indexBatch] {
			if _, err := store.Publish(m); err != nil {
				return 0, err
			}
		}
		h.tr.End(sp)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp = h.tr.Start("catalog.index_all", root, op)
		d, err := clock(func() error { return eng.IndexAllContext(ctx) })
		h.tr.End(sp)
		h.tr.End(root)
		runtime.ReadMemStats(&after)
		indexAlloc += after.TotalAlloc - before.TotalAlloc
		return d, err
	}
	register := func(m *graph.Model) (time.Duration, error) {
		if h.tr == nil {
			return clock(func() error { _, err := eng.RegisterContext(ctx, m); return err })
		}
		// Traced, the same work is done through the two public calls
		// RegisterContext is made of, so each gets its span.
		op := h.tr.NewOp()
		root := h.tr.Start("op.register", -1, op)
		d, err := clock(func() error {
			sp := h.tr.Start("repo.publish", root, op)
			id, err := store.Publish(m)
			h.tr.End(sp)
			if err != nil {
				return err
			}
			sp = h.tr.Start("catalog.index", root, op)
			err = eng.IndexModel(ctx, id, m)
			h.tr.End(sp)
			return err
		})
		h.tr.End(root)
		return d, err
	}
	indexing := []Phase{{Spec{Name: "bulk_index", ChunkOps: 1, MaxOps: nBatches, Work: sz.indexBatch}, bulkOp}}
	if nRegister > 0 {
		indexing = append(indexing, Phase{
			Spec{Name: "register", ChunkOps: 1, MaxOps: nRegister, Turns: (nRegister + nBatches - 1) / nBatches},
			func(i int) (time.Duration, error) { return register(pop.Models[nBulk+i]) },
		})
	}
	indexed, err := h.Stage(0, indexing...)
	if err != nil {
		return nil, err
	}
	bulk := indexed[0]
	h.Count(nBatches+nBulk+nRegister, 0)
	rep.Set("index_models_per_s", bulk.Rate(), "models/s")
	rep.Set("raw.index_models_per_s", bulk.RawRate(), "models/s")
	rep.Set("index_alloc_mb_per_model", float64(indexAlloc)/float64(nBulk)/1e6, "MB")
	rep.Notef("bulk_index: %d batches", len(bulk.Raw))
	var reg *Samples
	if nRegister > 0 {
		reg = indexed[1]
	}
	if err := eng.SetDefaultReference(taskName, fx.defaultRef); err != nil {
		return nil, err
	}

	// runQuery runs the i-th query of the mix. Traced, it goes through
	// ExplainContext and lays the engine's own stage timings out as
	// child spans.
	runQuery := func(i int) (time.Duration, error) {
		q := mix.Queries[i%len(mix.Queries)].Text
		if h.tr == nil {
			return clock(func() error { _, err := eng.QueryContext(ctx, q); return err })
		}
		d, _, err := tracedQuery(ctx, h.tr, eng, q)
		return d, err
	}

	var single *Samples
	if nChurn > 0 {
		reg, single, err = runChurn(h, pop.Models[nBulk+nRegister:nBulk+nRegister+nChurn], register, runQuery)
		if err != nil {
			return nil, err
		}
		h.Count(nChurn, 0)
	}
	h.Check("indexed_count", eng.IndexedLen() == total, "%d models indexed, want %d", eng.IndexedLen(), total)

	// Serving stage, on the now static snapshot: single queries,
	// batches of 64 over the same mix, and model fetches take turns for
	// what the earlier stages left of Seconds.
	mixBatches := len(mix.Queries) / queryBatch
	loadOp, err := loadPhase(h, fx, sz.disk)
	if err != nil {
		return nil, err
	}
	serving := []Phase{
		{Spec{Name: "query_batch", MinOps: 32, Work: queryBatch, Turns: sz.batch}, func(i int) (time.Duration, error) {
			qs := mix.Texts(i%mixBatches*queryBatch, (i%mixBatches+1)*queryBatch)
			return h.tr.Timed("op.query_batch", "engine.query_batch", func() error { return firstError(eng.QueryBatchContext(ctx, qs)) })
		}},
		{Spec{Name: "load", MinOps: 64, Turns: sz.load}, loadOp},
	}
	if single == nil {
		serving = append(serving, Phase{Spec{Name: "query", MinOps: 2000, Turns: sz.query}, runQuery})
	}
	served, err := h.Stage(servingBudget(cfg, measureStart, 3*time.Second), serving...)
	if err != nil {
		return nil, err
	}
	batch, load := served[0], served[1]
	if single == nil {
		single = served[2]
	}
	h.Count(len(single.Raw)+len(batch.Raw)*queryBatch+len(load.Raw), 0)
	rep.Set("register_p50_ms", reg.P50()*1e3, "ms")
	rep.Set("raw.register_p50_ms", reg.RawP50()*1e3, "ms")
	rep.Notef("register: %d samples", len(reg.Raw))
	reportQueries(rep, single, batch)
	rep.Set("load_p50_ms", load.P50()*1e3, "ms")
	rep.Set("raw.load_p50_ms", load.RawP50()*1e3, "ms")
	rep.Notef("load: %d samples", len(load.Raw))
	rep.Notef("measured for %.1f s (asked %.0f), set-up %.1f s", time.Since(measureStart).Seconds(), cfg.Seconds, measureStart.Sub(runStart).Seconds())

	// Counts: exact, so taken once, with nothing else running.
	canon := CanonicalQueries(pop.IDs, taskName)
	allocB, _, err := allocPerOp(len(canon), func(i int) error {
		_, err := eng.QueryContext(ctx, canon[i].Text)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Set("query_alloc_kb", allocB/1e3, "kB")
	sem, res := eng.IndexMemoryBytes()
	rep.Set("index_bytes_per_model", float64(sem+res)/float64(total), "B")
	stored, err := storedBytes(store, pop.IDs)
	if err != nil {
		return nil, err
	}
	rep.Set("stored_bytes_ratio", float64(stored)/float64(pop.UserBytes(0, total)), "ratio")
	nWire := min(wireModels, total)
	sent, err := wireBytes(pop.Models[:nWire])
	if err != nil {
		return nil, err
	}
	h.Count(len(canon)+nWire, 0)
	rep.Set("wire_bytes_ratio", float64(sent)/float64(pop.UserBytes(0, nWire)), "ratio")

	// Hard checks on outputs.
	recall, err := oracleRecall(ctx, h, eng, canon, fx.defaultRef)
	if err != nil {
		return nil, err
	}
	rep.Set("query_oracle_recall", recall, "ratio")
	if err := checkBatchEqualsSerial(ctx, h, eng, mix); err != nil {
		return nil, err
	}
	if err := checkHydration(h, store, pop); err != nil {
		return nil, err
	}
	if h.tr != nil {
		if err := measureLayers(ctx, h, rep, pop, cfg.Seed, cfg.TmpDir); err != nil {
			return nil, err
		}
	}
	rep.finish(h)
	return rep, nil
}

// reportQueries sets the query metrics both kinds of workload share.
func reportQueries(rep *Report, single, batch *Samples) {
	rep.Set("query_p50_us", single.P50()*1e6, "us")
	rep.Set("query_p95_us", single.P95()*1e6, "us")
	rep.Set("query_per_s", single.Rate(), "1/s")
	rep.Set("raw.query_p50_us", single.RawP50()*1e6, "us")
	rep.Set("raw.query_p95_us", single.RawP95()*1e6, "us")
	rep.Set("raw.query_per_s", single.RawRate(), "1/s")
	rep.Notef("query: %d samples in %d chunks", len(single.Raw), len(single.Chunks))
	rep.Set("batch_query_per_s", batch.Rate(), "1/s")
	rep.Set("raw.batch_query_per_s", batch.RawRate(), "1/s")
	rep.Notef("query_batch: %d batches of %d in %d chunks", len(batch.Raw), queryBatch, len(batch.Chunks))
}

// stageLayer names the layer each engine query stage is charged to.
var stageLayer = map[string]string{"parse": "query", "candidates": "index", "filter": "index", "rank": "engine"}

// runChurn drives the churn rounds: in each, a writer goroutine
// registers churnRound new models one after another while a reader
// goroutine runs the query mix without pause; both stop for the probes
// between rounds. It returns the writer's and the reader's samples,
// each round one chunk.
func runChurn(h *Harness, models []*graph.Model, register func(*graph.Model) (time.Duration, error), runQuery Op) (reg, qry *Samples, err error) {
	reg = &Samples{Name: "churn_register", Work: 1}
	qry = &Samples{Name: "churn_query", Work: 1}
	runtime.GC()
	before := h.probe(0)
	for r := 0; r < len(models)/churnRound; r++ {
		var stop atomic.Bool
		var wg sync.WaitGroup
		var wErr, rErr error
		rc, qc := Chunk{First: len(reg.Raw)}, Chunk{First: len(qry.Raw)}
		roundStart := time.Now()
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer stop.Store(true)
			for _, m := range models[r*churnRound : (r+1)*churnRound] {
				d, err := register(m)
				if err != nil {
					wErr = err
					return
				}
				reg.Raw = append(reg.Raw, d.Seconds())
			}
		}()
		go func() {
			defer wg.Done()
			for !stop.Load() {
				d, err := runQuery(len(qry.Raw))
				if err != nil {
					rErr = err
					return
				}
				qry.Raw = append(qry.Raw, d.Seconds())
			}
		}()
		wg.Wait()
		round := time.Since(roundStart)
		h.OpTime += round
		if wErr != nil {
			return nil, nil, fmt.Errorf("churn round %d writer: %w", r, wErr)
		}
		if rErr != nil {
			return nil, nil, fmt.Errorf("churn round %d reader: %w", r, rErr)
		}
		after := h.probe(round)
		speed := RefNominalUS / ((before + after) / 2)
		before = after
		for _, s := range []struct {
			s *Samples
			c Chunk
		}{{reg, rc}, {qry, qc}} {
			s.c.N, s.c.Speed = len(s.s.Raw)-s.c.First, speed
			for _, raw := range s.s.Raw[s.c.First:] {
				s.s.Corr = append(s.s.Corr, raw*speed)
			}
			s.s.Chunks = append(s.s.Chunks, s.c)
		}
	}
	return reg, qry, nil
}

// diskModels is how many models the cold-load sweep keeps on disk.
const diskModels = 48

// loadPhase prepares the workload's model-fetch operation. In memory it
// is an uncached fetch: Load of a model held only as chunks, so every
// call hydrates. A mirror repository is used because the engine's own
// store keeps every published model decoded; re-publishing a model's
// chunks before each Load drops the mirror's decoded copy, outside the
// timer. On disk the first diskModels models are published to a
// directory-backed repository, which is then re-opened before every
// sweep so that each Load is cold.
func loadPhase(h *Harness, fx *engineFixture, disk bool) (Op, error) {
	pop := fx.pop
	traced := func(load func() error) (time.Duration, error) { return h.tr.Timed("op.load", "repo.load", load) }
	if !disk {
		mirror := repo.NewInMemory()
		encs := make([]*cas.Encoded, len(pop.Models))
		for i, m := range pop.Models {
			enc, err := fx.store.Encode(m)
			if err != nil {
				return nil, err
			}
			enc.Model = nil
			encs[i] = enc
		}
		return func(i int) (time.Duration, error) {
			i %= len(encs)
			if _, err := mirror.PublishEncoded(encs[i]); err != nil {
				return 0, err
			}
			return traced(func() error { _, err := mirror.Load(pop.IDs[i]); return err })
		}, nil
	}
	n := min(diskModels, len(pop.Models))
	onDisk, err := repo.Open(fx.dir)
	if err != nil {
		return nil, err
	}
	for _, m := range pop.Models[:n] {
		if _, err := onDisk.Publish(m); err != nil {
			return nil, err
		}
	}
	h.Count(n, 0)
	var cold *repo.Repository
	return func(i int) (time.Duration, error) {
		if i%n == 0 {
			if cold, err = repo.Open(fx.dir); err != nil {
				return 0, err
			}
		}
		return traced(func() error { _, err := cold.Load(pop.IDs[i%n]); return err })
	}, nil
}

// storedBytes is what the repository keeps for ids: deduplicated chunk
// payload plus every manifest.
func storedBytes(store *repo.Repository, ids []string) (int64, error) {
	total := store.CASStats().Bytes
	var buf bytes.Buffer
	for _, id := range ids {
		man, ok := store.Manifest(id)
		if !ok {
			return 0, fmt.Errorf("bench: no manifest for %s", id)
		}
		buf.Reset()
		if err := cas.EncodeManifest(&buf, man); err != nil {
			return 0, err
		}
		total += int64(buf.Len())
	}
	return total, nil
}

// publishThroughHub serves srv on loopback and hands use a client of it.
func publishThroughHub(srv *hub.Server, use func(*hub.Client) error) error {
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := hub.NewClient(ts.URL, ts.Client())
	if err != nil {
		return err
	}
	return use(c)
}

// wireBytes publishes models through one hub.Client.PublishModel pass
// to a fresh hub on loopback and returns the request-body bytes sent.
func wireBytes(models []*graph.Model) (int64, error) {
	srv, err := hub.NewServer(repo.NewInMemory())
	if err != nil {
		return 0, err
	}
	var sent int64
	err = publishThroughHub(srv, func(c *hub.Client) error {
		for _, m := range models {
			_, n, err := c.PublishModel(m)
			if err != nil {
				return fmt.Errorf("bench: wire pass: %w", err)
			}
			sent += n
		}
		return nil
	})
	return sent, err
}

// satisfies is the harness's own reading of a constraint list against a
// candidate profile and the reference's — deliberately not the
// engine's code.
func satisfies(cs []query.Constraint, p, ref resource.Profile) bool {
	for _, c := range cs {
		var v, refV float64
		switch c.Metric {
		case query.MetricMemory:
			v, refV = float64(p.MemoryBytes), float64(ref.MemoryBytes)
		case query.MetricFLOPs:
			v, refV = float64(p.FLOPs), float64(ref.FLOPs)
		case query.MetricLatency:
			v, refV = p.LatencyMS, ref.LatencyMS
		}
		limit := c.Value
		switch c.Unit {
		case query.UnitRelative:
			limit = c.Value / 100 * refV
		case query.UnitMB:
			limit = c.Value * (1 << 20)
		case query.UnitGB:
			limit = c.Value * (1 << 30)
		case query.UnitGFLOPs:
			limit = c.Value * 1e9
		case query.UnitTFLOPs:
			limit = c.Value * 1e12
		}
		ok := false
		switch c.Op {
		case query.OpLT:
			ok = v < limit
		case query.OpLE:
			ok = v <= limit
		case query.OpGT:
			ok = v > limit
		case query.OpGE:
			ok = v >= limit
		case query.OpEQ:
			ok = v >= limit*0.95 && v <= limit*1.05
		}
		if !ok {
			return false
		}
	}
	return true
}

// querier is the part of an engine or coordinator the oracle needs.
type querier func(ctx context.Context, q *query.Query) ([]oracleResult, error)

type oracleResult struct {
	ID      string
	Profile resource.Profile
}

// oracleRecall checks the constrained, non-EXEC queries of qs against
// an oracle: the same query without its ON clause, filtered here by the
// parsed constraints. A returned model outside the expected set is a
// failure; the share of the expected set that was returned is the
// recall.
func oracleRecall(ctx context.Context, h *Harness, eng *sommelier.Engine, qs []Query, defaultRef string) (float64, error) {
	var hit, want, checked int
	for i := range qs {
		q := &qs[i]
		if q.Shape == ShapeSim || q.Shape == ShapeExec {
			continue
		}
		ast, err := query.Parse(q.Text)
		if err != nil {
			return 0, err
		}
		got, err := eng.QueryASTContext(ctx, ast)
		if err != nil {
			return 0, err
		}
		open := *ast
		open.Constraints = nil
		all, err := eng.QueryASTContext(ctx, &open)
		if err != nil {
			return 0, err
		}
		ref := ast.Ref
		if ref == "" {
			ref = defaultRef
		}
		refProf, ok := eng.Profile(ref)
		if !ok {
			return 0, fmt.Errorf("bench: no profile for reference %s", ref)
		}
		expected := map[string]bool{}
		for _, r := range all {
			if satisfies(ast.Constraints, r.Profile, refProf) {
				expected[r.ID] = true
			}
		}
		stray := 0
		for _, r := range got {
			if expected[r.ID] {
				hit++
			} else {
				stray++
			}
		}
		want += len(expected)
		checked++
		h.Count(1, min(stray, 1))
		h.Check("oracle_no_stray_result", stray == 0, "%q returned %d models outside the oracle's set", q.Text, stray)
	}
	if want == 0 {
		return 0, fmt.Errorf("bench: oracle expected no results over %d queries; the mix is degenerate", checked)
	}
	return float64(hit) / float64(want), nil
}

// checkBatchEqualsSerial compares QueryBatchContext with one
// QueryContext per query over the first batches of the mix.
func checkBatchEqualsSerial(ctx context.Context, h *Harness, eng *sommelier.Engine, mix *QueryMix) error {
	for b := 0; b < 4; b++ {
		qs := mix.Texts(b*queryBatch, (b+1)*queryBatch)
		got, errs := eng.QueryBatchContext(ctx, qs)
		for i, q := range qs {
			if errs[i] != nil {
				return errs[i]
			}
			want, err := eng.QueryContext(ctx, q)
			if err != nil {
				return err
			}
			same := len(got[i]) == len(want) && (len(want) == 0 || reflect.DeepEqual(got[i], want))
			h.Count(1, btoi(!same))
			h.Check("batch_equals_serial", same, "batch answer to %q differs from the serial one", q)
		}
	}
	return nil
}

// checkHydration loads every model from its chunks and compares its
// re-encoding with the digest taken at generation.
func checkHydration(h *Harness, store *repo.Repository, pop *Population) error {
	var buf bytes.Buffer
	for i, id := range pop.IDs {
		man, ok := store.Manifest(id)
		if !ok {
			return fmt.Errorf("bench: no manifest for %s", id)
		}
		m, err := cas.Hydrate(man, store.GetChunk)
		if err != nil {
			return err
		}
		buf.Reset()
		if err := graph.Encode(&buf, m); err != nil {
			return err
		}
		sum := sha256.Sum256(buf.Bytes())
		same := hex.EncodeToString(sum[:]) == pop.Digests[i]
		h.Count(1, btoi(!same))
		h.Check("hydrate_byte_identical", same, "%s re-encodes differently after hydration", id)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
