package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sommelier"
	"sommelier/internal/cas"
	"sommelier/internal/catalog"
	"sommelier/internal/chunk"
	"sommelier/internal/cluster"
	"sommelier/internal/dataset"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/index"
	"sommelier/internal/lsh"
	"sommelier/internal/nn"
	"sommelier/internal/obs"
	"sommelier/internal/query"
	"sommelier/internal/repo"
	"sommelier/internal/resource"
	"sommelier/internal/stats"
	"sommelier/internal/tensor"
)

// layerModels is how many models of the workload's population, in
// publish order, the per-layer measurements run on.
const layerModels = 24

// layerProbe carries one traced run's per-layer measurements: each is
// taken from here, around one public call of one layer, on models the
// workload's generator made. Timings are medians of speed-corrected
// samples like the end-to-end ones; they carry no bound.
type layerProbe struct {
	ctx  context.Context
	h    *Harness
	rep  *Report
	pop  *Population
	seed uint64
	tmp  string
}

// timed runs op n times as one short phase and returns the median
// speed-corrected duration in seconds.
func (p *layerProbe) timed(name string, n int, op func(i int) error) (float64, error) {
	s, err := p.h.Run(Spec{Name: name, MaxOps: n}, 0, func(i int) (time.Duration, error) {
		return clock(func() error { return op(i) })
	})
	if err != nil {
		return 0, err
	}
	return s.P50(), nil
}

// us and ms record a timed call's median under name.
func (p *layerProbe) us(name string, n int, op func(i int) error) error {
	d, err := p.timed(name, n, op)
	if err == nil {
		p.rep.Set(name, d*1e6, "us")
	}
	return err
}

func (p *layerProbe) ms(name string, n int, op func(i int) error) error {
	d, err := p.timed(name, n, op)
	if err == nil {
		p.rep.Set(name, d*1e3, "ms")
	}
	return err
}

// measureLayers reports every per-layer metric except the raw.*
// diagnostics, which come from the workload's own phases.
func measureLayers(ctx context.Context, h *Harness, rep *Report, pop *Population, seed uint64, tmp string) error {
	p := &layerProbe{ctx: ctx, h: h, rep: rep, pop: pop.Slice(0, min(layerModels, len(pop.Models))), seed: seed, tmp: tmp}
	for _, step := range []func() error{p.substrate, p.analysis, p.catalogAndIndex, p.lsh, p.engine, p.storage, p.distribution} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// substrate: tensor kernels, the forward pass and the model codec.
func (p *layerProbe) substrate() error {
	models := p.pop.Models
	rng := tensor.NewRNG(CorpusSeed)
	a, b := tensor.New(64, 64), tensor.New(64, 64)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	if err := p.us("tensor.matmul_us", 400, func(int) error { tensor.MatMul(a, b); return nil }); err != nil {
		return err
	}
	execs := make([]*nn.Executor, len(models))
	for i, m := range models {
		var err error
		if execs[i], err = nn.NewExecutor(m); err != nil {
			return err
		}
	}
	inputs := dataset.RandomImages(validationSize, models[0].InputShape, CorpusSeed)
	if err := p.us("nn.forward_us", 2000, func(i int) error {
		_, err := execs[i%len(execs)].Forward(inputs[i%len(inputs)])
		return err
	}); err != nil {
		return err
	}
	if err := p.ms("nn.agreement_ms", 48, func(i int) error {
		_, err := nn.AgreementRatio(execs[i%len(execs)], execs[(i+1)%len(execs)], inputs)
		return err
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	encoded := make([][]byte, len(models))
	if err := p.us("graph.encode_us", 4*len(models), func(i int) error {
		buf.Reset()
		err := graph.Encode(&buf, models[i%len(models)])
		encoded[i%len(models)] = append([]byte(nil), buf.Bytes()...)
		return err
	}); err != nil {
		return err
	}
	return p.us("graph.decode_us", 4*len(models), func(i int) error {
		_, err := graph.Decode(bytes.NewReader(encoded[i%len(models)]))
		return err
	})
}

// analysis: one pairwise equivalence check and one resource profile.
func (p *layerProbe) analysis() error {
	models := p.pop.Models
	probes := &dataset.Dataset{Name: "probe", Inputs: dataset.RandomImages(validationSize, models[0].InputShape, CorpusSeed+3)}
	opts := equiv.Options{Epsilon: 1, Seed: CorpusSeed}
	if err := p.ms("equiv.check_pair_ms", 48, func(i int) error {
		_, _, err := equiv.CheckPair(models[i%len(models)], models[(i+1)%len(models)], probes, probes, opts)
		return err
	}); err != nil {
		return err
	}
	prof := resource.NewProfiler(nil)
	if err := p.us("resource.measure_us", 1000, func(i int) error {
		_, err := prof.Measure(models[i%len(models)])
		return err
	}); err != nil {
		return err
	}
	batch8 := resource.DefaultSetting()
	batch8.Name, batch8.BatchSize = "batch8", 8
	return p.us("resource.measure_exec_us", 1000, func(i int) error {
		_, err := prof.MeasureWith(models[i%len(models)], batch8)
		return err
	})
}

// catalogAndIndex: the indexing pipeline one model at a time and in a
// batch, then lookups on the snapshot it published.
func (p *layerProbe) catalogAndIndex() error {
	models, ids := p.pop.Models, p.pop.IDs
	o := obs.New()
	cfg := catalog.Config{Seed: CorpusSeed, ValidationSize: validationSize}
	observed := cfg
	observed.Observer = o
	cat := catalog.New(observed)
	one, err := p.h.Run(Spec{Name: "catalog.index_ms", ChunkOps: 1, MaxOps: len(models)}, 0, func(i int) (time.Duration, error) {
		return clock(func() error { return cat.Index(p.ctx, ids[i], models[i]) })
	})
	if err != nil {
		return err
	}
	p.rep.Set("catalog.index_ms", one.P50()*1e3, "ms")
	// Past the first few inserts every model is analyzed against the
	// same number of partners, so growth in per-insert time is what the
	// index itself costs as it fills.
	third := len(one.Corr) / 3
	p.rep.Set("catalog.index_growth_ratio", stats.Percentile(one.Corr[2*third:], 50)/stats.Percentile(one.Corr[third:2*third], 50), "ratio")
	p.rep.Set("catalog.tasks_per_model", float64(o.Counter("catalog_tasks_total").Value())/float64(len(models)), "count")

	entries := make([]index.Entry, len(models))
	for i := range models {
		entries[i] = index.Entry{ID: ids[i], Model: models[i]}
	}
	var serial, parallel float64
	for _, run := range []struct {
		workers int
		out     *float64
	}{{1, &serial}, {0, &parallel}} {
		c := cfg
		c.Workers = run.workers
		if *run.out, err = p.timed("catalog.index_batch", 1, func(int) error {
			_, err := catalog.New(c).IndexBatch(p.ctx, entries)
			return err
		}); err != nil {
			return err
		}
	}
	p.rep.Set("catalog.batch_speedup", serial/parallel, "ratio")

	snap := cat.Snapshot()
	if err := p.us("index.lookup_us", 4000, func(i int) error {
		_, err := snap.Lookup(ids[i%len(ids)], 0.5)
		return err
	}); err != nil {
		return err
	}
	if err := p.us("index.topk_us", 4000, func(i int) error {
		_, err := snap.TopK(ids[i%len(ids)], 5)
		return err
	}); err != nil {
		return err
	}
	// The resource index alone, over the same profiles, with the exact
	// scan beside the LSH-prefiltered lookup the query path uses.
	res := index.NewResourceIndex(CorpusSeed + 2)
	budgets := make([]index.Budget, 0, len(ids))
	for _, id := range ids {
		prof, ok := snap.Profile(id)
		if !ok {
			return fmt.Errorf("bench: catalog holds no profile for %s", id)
		}
		if err := res.Insert(id, prof); err != nil {
			return err
		}
		budgets = append(budgets, index.Budget{MaxMemoryBytes: prof.MemoryBytes}, index.Budget{MaxFLOPs: prof.FLOPs, MaxLatencyMS: prof.LatencyMS * 2})
	}
	if err := p.us("index.resource_candidates_us", 4000, func(i int) error {
		_, err := res.Candidates(budgets[i%len(budgets)], 0)
		return err
	}); err != nil {
		return err
	}
	if err := p.us("index.resource_exact_us", 4000, func(i int) error {
		res.CandidatesExact(budgets[i%len(budgets)])
		return nil
	}); err != nil {
		return err
	}
	var found, feasible int
	for _, b := range budgets {
		got, err := res.Candidates(b, 0)
		if err != nil {
			return err
		}
		exact := map[string]bool{}
		for _, id := range res.CandidatesExact(b) {
			exact[id] = true
		}
		feasible += len(exact)
		for _, id := range got {
			if exact[id] {
				found++
			}
		}
	}
	p.rep.Set("index.resource_recall", float64(found)/float64(max(feasible, 1)), "ratio")
	sem, resBytes := cat.MemoryBytes()
	p.rep.Set("index.semantic_bytes_per_model", float64(sem)/float64(len(ids)), "B")
	p.rep.Set("index.resource_bytes_per_model", float64(resBytes)/float64(len(ids)), "B")
	return nil
}

// lsh: the hash index under the resource index, on profile-like vectors.
func (p *layerProbe) lsh() error {
	const n = 512
	rng := tensor.NewRNG(CorpusSeed ^ 0x6c7368)
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	idx, err := lsh.New(lsh.DefaultConfig(3))
	if err != nil {
		return err
	}
	if err := p.us("lsh.insert_us", n, func(i int) error { return idx.Insert(fmt.Sprintf("v%03d", i), vecs[i]) }); err != nil {
		return err
	}
	matches := 0
	if err := p.us("lsh.query_us", 4000, func(i int) error {
		ms, err := idx.Query(vecs[i%n], 0.1)
		matches += len(ms)
		return err
	}); err != nil {
		return err
	}
	p.rep.Set("lsh.candidates_per_query", float64(matches)/4000, "count")
	return p.us("lsh.query_exact_us", 4000, func(i int) error {
		_, err := idx.QueryExact(vecs[i%n], 0.1)
		return err
	})
}

// engine: the query path by stage and by query shape, the batch path,
// and index persistence, on an engine over the sample models.
func (p *layerProbe) engine() error {
	store := repo.NewInMemory()
	eng, err := newEngine(store)
	if err != nil {
		return err
	}
	for _, m := range p.pop.Models {
		if _, err := eng.RegisterContext(p.ctx, m); err != nil {
			return err
		}
	}
	if err := eng.SetDefaultReference(taskName, p.pop.IDs[0]); err != nil {
		return err
	}
	const nQueries = 6000
	mix := NewQueryMix(p.seed, p.pop.IDs, taskName, nQueries)
	if err := p.us("query.parse_us", nQueries, func(i int) error {
		_, err := query.Parse(mix.Queries[i].Text)
		return err
	}); err != nil {
		return err
	}

	// Untraced and traced over the same queries, taking turns so that
	// both see the same machine: the difference is what recording spans
	// (and asking the engine for its stage timings) costs.
	tr := p.h.tr
	explained := make([]*sommelier.Explanation, nQueries)
	var results, examined int
	both, err := p.h.Stage(0,
		Phase{Spec{Name: "engine.query", MaxOps: nQueries}, func(i int) (time.Duration, error) {
			return clock(func() error { _, err := eng.QueryContext(p.ctx, mix.Queries[i].Text); return err })
		}},
		Phase{Spec{Name: "engine.query_traced", MaxOps: nQueries}, func(i int) (time.Duration, error) {
			d, ex, err := tracedQuery(p.ctx, tr, eng, mix.Queries[i].Text)
			if err != nil {
				return 0, err
			}
			explained[i] = ex
			results += ex.Returned
			examined += ex.SemanticCandidates
			return d, nil
		}})
	if err != nil {
		return err
	}
	plain, traced := both[0], both[1]
	p.rep.Set("trace.overhead_ratio", traced.P50()/plain.P50()-1, "ratio")
	p.rep.Set("engine.query_p99_us", plain.P99()*1e6, "us")
	// By shape and by stage, each sample corrected by its chunk's speed
	// like every other timing: the engine's own stage clock ran on the
	// same machine at the same moment.
	stageUS := map[string][]float64{}
	shapeUS := make([][]float64, numShapes)
	for _, c := range traced.Chunks {
		for i := c.First; i < c.First+c.N; i++ {
			shape := mix.Queries[i].Shape
			shapeUS[shape] = append(shapeUS[shape], traced.Corr[i]*1e6)
			for _, st := range explained[i].Stages {
				stageUS[st.Stage] = append(stageUS[st.Stage], st.Millis*1e3*c.Speed)
			}
		}
	}
	for _, stage := range []string{"parse", "candidates", "filter", "rank"} {
		if len(stageUS[stage]) == 0 {
			return fmt.Errorf("bench: the engine reported no %q stage timing", stage)
		}
		p.rep.Set("engine.stage_"+stage+"_us", stats.Percentile(stageUS[stage], 50), "us")
	}
	for s, us := range shapeUS {
		p.rep.Set("engine.shape_"+Shape(s).String()+"_p50_us", stats.Percentile(us, 50), "us")
	}
	p.rep.Set("engine.results_per_query", float64(results)/nQueries, "count")
	p.rep.Set("engine.examined_per_result", float64(examined)/float64(max(results, 1)), "count")
	_, allocs, err := allocPerOp(nQueries, func(i int) error {
		_, err := eng.QueryContext(p.ctx, mix.Queries[i].Text)
		return err
	})
	if err != nil {
		return err
	}
	p.rep.Set("engine.query_allocs", allocs, "count")
	nBatches := nQueries / queryBatch
	batch, err := p.h.Run(Spec{Name: "engine.query_batch", MaxOps: 2 * nBatches, Work: queryBatch}, 0, func(i int) (time.Duration, error) {
		return clock(func() error {
			return firstError(eng.QueryBatchContext(p.ctx, mix.Texts(i%nBatches*queryBatch, (i%nBatches+1)*queryBatch)))
		})
	})
	if err != nil {
		return err
	}
	p.rep.Set("engine.batch_speedup", batch.Rate()/plain.Rate(), "ratio")

	var snap bytes.Buffer
	if err := p.ms("engine.save_indexes_ms", 32, func(int) error {
		snap.Reset()
		return eng.SaveIndexes(&snap)
	}); err != nil {
		return err
	}
	p.rep.Set("engine.index_snapshot_bytes", float64(snap.Len()), "B")
	return p.ms("engine.load_indexes_ms", 32, func(int) error {
		return eng.LoadIndexes(bytes.NewReader(snap.Bytes()))
	})
}

// firstError is the first error of a batch answer, if any.
func firstError[T any](_ []T, errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// storage: chunking, the manifest codec, and the repository in memory
// and on disk.
func (p *layerProbe) storage() error {
	models, ids := p.pop.Models, p.pop.IDs
	rng := tensor.NewRNG(CorpusSeed ^ 0x63686b)
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	split, err := p.timed("chunk.split", 200, func(int) error { chunk.Split(vals, 0, nil); return nil })
	if err != nil {
		return err
	}
	p.rep.Set("chunk.split_mb_per_s", float64(8*len(vals))/1e6/split, "MB/s")
	edited := append([]float64(nil), vals...)
	for i := 0; i < len(edited); i += 97 {
		edited[i]++
	}
	if err := p.us("chunk.delta_encode_us", 200, func(int) error {
		if _, ok := chunk.EncodeDelta(vals, edited); !ok {
			return fmt.Errorf("bench: a 1%% edit did not delta-encode")
		}
		return nil
	}); err != nil {
		return err
	}
	if err := p.ms("cas.encode_ms", 4*len(models), func(i int) error {
		_, err := cas.Encode(models[i%len(models)], "", nil, 0)
		return err
	}); err != nil {
		return err
	}

	mem := repo.NewInMemory()
	pub, err := p.h.Run(Spec{Name: "repo.publish_mem_us", MaxOps: len(models)}, 0, func(i int) (time.Duration, error) {
		return clock(func() error { _, err := mem.Publish(models[i]); return err })
	})
	if err != nil {
		return err
	}
	p.rep.Set("repo.publish_mem_us", pub.P50()*1e6, "us")
	st := mem.CASStats()
	p.rep.Set("cas.dedup_hit_ratio", float64(st.DedupHits)/float64(max(st.Puts, 1)), "ratio")
	deltas := 0
	manifests := make([]*cas.Manifest, len(ids))
	for i, id := range ids {
		man, ok := mem.Manifest(id)
		if !ok {
			return fmt.Errorf("bench: no manifest for %s", id)
		}
		manifests[i] = man
		for _, l := range man.Layers {
			for _, ref := range l.Params {
				if ref.Delta != nil {
					deltas++
				}
			}
		}
	}
	p.rep.Set("cas.delta_refs_per_model", float64(deltas)/float64(len(ids)), "count")
	if err := p.ms("cas.hydrate_ms", 4*len(ids), func(i int) error {
		_, err := cas.Hydrate(manifests[i%len(ids)], mem.GetChunk)
		return err
	}); err != nil {
		return err
	}
	if err := p.us("repo.load_warm_us", 4000, func(i int) error {
		_, err := mem.Load(ids[i%len(ids)])
		return err
	}); err != nil {
		return err
	}

	dir, err := os.MkdirTemp(p.tmp, "sommperf-layers-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := repo.Open(filepath.Join(dir, "repo"))
	if err != nil {
		return err
	}
	if err := p.ms("repo.publish_disk_ms", len(models), func(i int) error {
		_, err := disk.Publish(models[i])
		return err
	}); err != nil {
		return err
	}
	var cold *repo.Repository
	if err := p.ms("repo.open_ms", 8, func(int) (err error) {
		cold, err = repo.Open(filepath.Join(dir, "repo"))
		return err
	}); err != nil {
		return err
	}
	return p.ms("repo.load_cold_ms", len(ids), func(i int) error {
		_, err := cold.Load(ids[i])
		return err
	})
}

// distribution: a two-shard cluster of hub servers on loopback over
// half the sample, reached the way hub_cluster reaches its own.
func (p *layerProbe) distribution() error {
	const shards = 2
	models, ids := p.pop.Models[:len(p.pop.Models)/2], p.pop.IDs[:len(p.pop.IDs)/2]
	nodes := make([]*shardNode, shards)
	topo := make([][]cluster.Replica, shards)
	for s := range nodes {
		n, err := newShardNode(s, shards, &wireMeter{})
		if err != nil {
			return err
		}
		defer n.ts.Close()
		nodes[s], topo[s] = n, []cluster.Replica{n.rep}
	}
	cl, err := cluster.NewCluster(topo)
	if err != nil {
		return err
	}
	co, err := cluster.NewCoordinator(cluster.Backends(topo))
	if err != nil {
		return err
	}
	if err := p.ms("cluster.publish_ms", len(models), func(i int) error {
		_, err := cl.Publish(p.ctx, models[i])
		return err
	}); err != nil {
		return err
	}
	owner := map[string]*shardNode{}
	counts := make([]float64, shards)
	var sent, chunkPuts int64
	for s, n := range nodes {
		for _, md := range n.store.List() {
			owner[md.ID] = n
		}
		counts[s] = float64(n.store.Len())
		sent += n.meter.sent.Load()
		chunkPuts += n.meter.chunkPuts.Load()
	}
	p.rep.Set("cluster.ring_skew", stats.Max(counts)/stats.Mean(counts), "ratio")
	p.rep.Set("hub.wire_bytes_per_model", float64(sent)/float64(len(models)), "B")
	p.rep.Set("hub.chunk_puts_per_model", float64(chunkPuts)/float64(len(models)), "count")
	for _, n := range nodes {
		if _, ok := n.eng.Profile(ids[0]); ok {
			if err := n.eng.SetDefaultReference(taskName, ids[0]); err != nil {
				return err
			}
		}
	}

	const nQueries = 1500
	mix := NewQueryMix(p.seed, ids, taskName, nQueries)
	var overhead, widths []float64
	full := 0
	coord, err := p.h.Run(Spec{Name: "cluster.coord_query_us", MaxOps: nQueries}, 0, func(i int) (time.Duration, error) {
		q := mix.Queries[i].Text
		var resp *cluster.Response
		d, err := clock(func() (err error) { resp, err = co.Query(p.ctx, q); return err })
		if err != nil {
			return 0, err
		}
		if resp.Class() == cluster.OutcomeFull {
			full++
		}
		// The same query straight to every shard: the coordinator waits
		// for the slowest of them.
		slowest, width := 0.0, 0
		for _, n := range nodes {
			rtt, err := clock(func() error {
				rs, err := n.rep.Query(p.ctx, q)
				if len(rs) > 0 {
					width++
				}
				return err
			})
			if err != nil {
				return 0, err
			}
			slowest = max(slowest, rtt.Seconds())
		}
		overhead = append(overhead, d.Seconds()-slowest)
		widths = append(widths, float64(width))
		return d, nil
	})
	if err != nil {
		return err
	}
	p.rep.Set("cluster.coord_query_us", coord.P50()*1e6, "us")
	for _, c := range coord.Chunks {
		for i := c.First; i < c.First+c.N; i++ {
			overhead[i] *= c.Speed
		}
	}
	p.rep.Set("cluster.coord_overhead_us", stats.Percentile(overhead, 50)*1e6, "us")
	p.rep.Set("cluster.scatter_width", stats.Mean(widths), "count")
	p.rep.Set("cluster.full_ratio", float64(full)/nQueries, "ratio")

	// One hub alone, through its client.
	if err := p.us("hub.query_us", nQueries, func(i int) error {
		q := &mix.Queries[i]
		ref := q.Ref
		if ref == "" {
			ref = ids[0]
		}
		_, err := owner[ref].client.Query(p.ctx, q.Text)
		return err
	}); err != nil {
		return err
	}
	byNode := map[*shardNode][]string{}
	for i := range mix.Queries {
		q := &mix.Queries[i]
		ref := q.Ref
		if ref == "" {
			ref = ids[0]
		}
		byNode[owner[ref]] = append(byNode[owner[ref]], q.Text)
	}
	first := owner[ids[0]]
	local := byNode[first]
	nBatches := len(local) / queryBatch
	if nBatches == 0 {
		return fmt.Errorf("bench: only %d of %d queries land on one shard, too few for a batch", len(local), nQueries)
	}
	perBatch, err := p.timed("hub.query_batch_us", 2*nBatches, func(i int) error {
		_, qerrs, err := first.client.QueryBatch(p.ctx, local[i%nBatches*queryBatch:(i%nBatches+1)*queryBatch])
		for _, qe := range qerrs {
			if err == nil && qe != nil {
				err = qe
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	p.rep.Set("hub.query_batch_us", perBatch*1e6/queryBatch, "us")
	if err := p.ms("hub.load_ms", 4*len(ids), func(i int) error {
		id := ids[i%len(ids)]
		_, err := owner[id].client.Load(id)
		return err
	}); err != nil {
		return err
	}
	// A client with the default cache, two sweeps: the second should
	// never reach the wire.
	meter := &wireMeter{inner: http.DefaultTransport}
	cached, err := hub.NewClient(first.ts.URL, &http.Client{Transport: meter})
	if err != nil {
		return err
	}
	var mine []string
	for _, id := range ids {
		if owner[id] == first {
			mine = append(mine, id)
		}
	}
	for sweep := 0; sweep < 2; sweep++ {
		for _, id := range mine {
			if _, err := cached.Load(id); err != nil {
				return err
			}
		}
	}
	p.rep.Set("hub.cache_hit_ratio", 1-float64(meter.requests.Load())/float64(2*len(mine)), "ratio")
	fresh, err := hub.NewServer(repo.NewInMemory())
	if err != nil {
		return err
	}
	if err := publishThroughHub(fresh, func(c *hub.Client) error {
		return p.ms("hub.publish_ms", len(models), func(i int) error {
			_, _, err := c.PublishModel(models[i])
			return err
		})
	}); err != nil {
		return err
	}
	var retries int64
	for _, n := range nodes {
		retries += n.client.Stats().Retries
	}
	p.rep.Set("hub.retries", float64(retries), "count")
	return nil
}

// tracedQuery answers q through ExplainContext under an op.query root
// span and lays the engine's own stage timings out as its children.
func tracedQuery(ctx context.Context, tr *Tracer, eng *sommelier.Engine, q string) (time.Duration, *sommelier.Explanation, error) {
	op := tr.NewOp()
	root := tr.Start("op.query", -1, op)
	var ex *sommelier.Explanation
	d, err := clock(func() (err error) { ex, err = eng.ExplainContext(ctx, q); return err })
	tr.End(root)
	if err != nil {
		return 0, nil, err
	}
	if tr != nil {
		at := tr.Span(root).StartUS
		for _, st := range ex.Stages {
			tr.Add(stageLayer[st.Stage]+"."+st.Stage, root, op, at, st.Millis*1e3)
			at += st.Millis * 1e3
		}
	}
	return d, ex, nil
}
