package catalog

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"

	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/resource"
)

// The indexing pipeline has four stages:
//
//	plan → observe → compare → commit
//
// Only planning and commit take the writer lock, and both are cheap:
// planning draws the pairwise sample (consuming the index RNG in
// canonical order) and looks each planned model up in the evidence
// table; commit applies precomputed measurements. Running models — the
// expensive part — happens outside any lock, on the worker pool, once
// per model rather than once per pair: an observe task runs one model
// over one probe set, a pair task compares two models' evidence without
// running either, and a model's evidence is stored when it commits, so
// later insertions that sample it observe only themselves. For a fixed
// seed the committed index is byte-identical to serial insertion at any
// worker count: the RNG sequence and the task set are fixed at plan
// time and commits land in plan order.
//
// Cancellation drains the worker pool (queued tasks exit without
// running) and returns before commit, so a canceled call commits
// nothing and stores no evidence. Every stage reports its timing
// through the catalog's observer.

// evidenceKey is a model × probe set, the set named by probeCache.key.
type evidenceKey struct{ id, probes string }

// observation is one evidence slot an indexing call reads: filled from
// the catalog's evidence table at plan time, or by an observe task.
type observation struct {
	key      evidenceKey
	model    *graph.Model
	probesOf *graph.Model // its input shape selects the probe set
	ev       *equiv.Evidence
	err      error
}

// plannedPair is one new model (ref) and one of its sampled partners
// (cand). A compatible pair reads the observations CheckPair makes: both
// models on ref's probe set and both on cand's, usually the same set.
type plannedPair struct {
	ref, cand                                  index.Entry
	compatible                                 bool
	refOnRef, candOnRef, candOnCand, refOnCand *observation
	res                                        index.AnalysisResult
	err                                        error
}

// insertion is one model on its way through the pipeline.
type insertion struct {
	entry       index.Entry
	pairs       []*plannedPair // in the plan's draw order
	fingerprint string
	prof        resource.Profile
	err         error // profiling failure
}

// Index profiles, analyzes, and commits one model. Indexing an
// already indexed ID fails with an error wrapping
// index.ErrAlreadyIndexed. A canceled ctx aborts before commit.
func (c *Catalog) Index(ctx context.Context, id string, m *graph.Model) error {
	ctx, root := c.obs.StartSpan(ctx, "catalog.index", id)
	defer root.End()
	n, err := c.indexEntries(ctx, []index.Entry{{ID: id, Model: m}})
	if err == nil && n == 0 {
		err = fmt.Errorf("catalog: model %q %w", id, index.ErrAlreadyIndexed)
	}
	return err
}

// IndexBatch indexes a set of models through the staged pipeline.
// Entries already indexed — whether before the call or by a concurrent
// writer between planning and commit — are skipped, not errors;
// in-batch duplicate IDs keep the first occurrence. It returns the
// number of models committed.
//
// Cancellation mid-analysis drains the worker pool and returns
// ctx.Err() with nothing committed: the commit stage only runs for a
// batch whose analysis completed.
//
// For a fixed catalog seed, IndexBatch over the same entry order
// produces an index byte-identical to serial Index calls, at any
// worker count.
func (c *Catalog) IndexBatch(ctx context.Context, entries []index.Entry) (int, error) {
	ctx, root := c.obs.StartSpan(ctx, "catalog.indexall", "")
	defer root.End()
	return c.indexEntries(ctx, entries)
}

func (c *Catalog) indexEntries(ctx context.Context, entries []index.Entry) (int, error) {
	_, span := c.obs.StartSpan(ctx, "plan", "")
	ins, observations, err := c.plan(entries)
	c.obs.Histogram("catalog_plan_ms").Observe(span.End())
	if err != nil || len(ins) == 0 {
		return 0, err
	}

	// Observe, then compare (no lock): profile, fingerprint and fill
	// the evidence slots the table did not have, then measure every
	// planned pair. Each task writes its own slot: the WaitGroup is all
	// the synchronization.
	actx, stage := c.obs.StartSpan(ctx, "analyze", "")
	var wg sync.WaitGroup
	for _, in := range ins {
		c.runTask(actx, &wg, "profile", in.entry.ID, func() {
			in.fingerprint = in.entry.Model.Fingerprint()
			if in.prof, in.err = c.profiler.Measure(in.entry.Model); in.err != nil {
				in.err = fmt.Errorf("catalog: profiling %q: %w", in.entry.ID, in.err)
			}
		})
	}
	for _, o := range observations {
		if o.ev != nil {
			continue
		}
		c.runTask(actx, &wg, "observe", o.key.id+" on "+o.key.probes, func() {
			c.obs.Counter("catalog_observe_total").Inc()
			o.ev, o.err = equiv.Observe(o.model, c.pairs.probes.For(o.probesOf), c.pairs.opts)
		})
	}
	wg.Wait()
	for _, in := range ins {
		for _, p := range in.pairs {
			c.runTask(actx, &wg, "pair", p.ref.ID+"~"+p.cand.ID, func() {
				if p.res, p.err = c.analyze(p); p.err != nil {
					p.err = fmt.Errorf("catalog: analyzing %q vs %q: %w", p.ref.ID, p.cand.ID, p.err)
				}
			})
		}
	}
	wg.Wait()
	c.obs.Histogram("catalog_analyze_ms").Observe(stage.End())
	if err := ctx.Err(); err != nil {
		c.obs.Counter("catalog_index_canceled_total").Inc()
		return 0, err
	}

	// Commit (short lock): apply measurements in plan order and publish
	// once, covering both full and partial (error) commits.
	_, span = c.obs.StartSpan(ctx, "commit", "")
	defer func() { c.obs.Histogram("catalog_commit_ms").Observe(span.End()) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.snap.Load()
	profiles, refs := maps.Clone(cur.profiles), maps.Clone(cur.refs)
	committed, err := c.commitLocked(ins, profiles, refs)
	for _, o := range observations {
		// Evidence is kept only for the model object the index holds:
		// not for an entry this call did not commit, nor for one that
		// lost its ID to a concurrent writer's model.
		if e, ok := c.writer.EntryOf(o.key.id); ok && e.Model == o.model && o.ev != nil {
			c.evidence[o.key] = o.ev
		}
	}
	c.publishLocked(profiles, refs)
	c.obs.Counter("catalog_models_indexed_total").Add(int64(committed))
	return committed, err
}

// plan is stage 1 (short lock): filter out known and duplicate IDs,
// draw every pairwise sample up-front in canonical order, and resolve
// each planned pair — its partner's graph (later batch entries may
// sample earlier ones), its IOCompatible verdict, and its evidence
// slots, in first-use order and filled from the table where it can.
func (c *Catalog) plan(entries []index.Entry) ([]*insertion, []*observation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fresh []index.Entry
	inBatch := make(map[string]*graph.Model, len(entries))
	for _, e := range entries {
		if e.ID == "" || e.Model == nil {
			return nil, nil, fmt.Errorf("catalog: batch entry must have an ID and a model")
		}
		if c.writer.Contains(e.ID) || inBatch[e.ID] != nil {
			continue
		}
		inBatch[e.ID] = e.Model
		fresh = append(fresh, e)
	}
	slots := make(map[evidenceKey]*observation)
	var observations []*observation
	slot := func(e index.Entry, probesOf *graph.Model) *observation {
		key := evidenceKey{e.ID, c.pairs.probes.key(probesOf)}
		o := slots[key]
		if o == nil {
			o = &observation{key: key, model: e.Model, probesOf: probesOf, ev: c.evidence[key]}
			if o.ev != nil {
				c.obs.Counter("catalog_evidence_hits_total").Inc()
			}
			slots[key] = o
			observations = append(observations, o)
		}
		return o
	}
	var ins []*insertion
	for _, sp := range c.writer.PlanInserts(fresh) {
		in := &insertion{entry: sp.Entry}
		for _, pid := range sp.Partners {
			partner, ok := c.writer.EntryOf(pid)
			if !ok {
				if inBatch[pid] == nil {
					return nil, nil, fmt.Errorf("catalog: planned partner %q unknown", pid)
				}
				partner = index.Entry{ID: pid, Model: inBatch[pid]}
			}
			p := &plannedPair{ref: in.entry, cand: partner}
			if p.compatible, _ = equiv.IOCompatible(p.ref.Model, p.cand.Model); p.compatible {
				p.refOnRef, p.candOnRef = slot(p.ref, p.ref.Model), slot(p.cand, p.ref.Model)
				p.candOnCand, p.refOnCand = slot(p.cand, p.cand.Model), slot(p.ref, p.cand.Model)
			}
			in.pairs = append(in.pairs, p)
		}
		ins = append(ins, in)
	}
	return ins, observations, nil
}

// commitLocked applies insertions in plan order, stopping at the first
// profiling or analysis failure. A commit that finds its ID already
// indexed lost a race with a concurrent writer and is skipped — check
// and insert share one critical section, so there is no window for
// double insertion. Profiles and first-of-a-task default references go
// into the caller's clones of the two tables. Callers hold c.mu.
func (c *Catalog) commitLocked(ins []*insertion, profiles map[string]resource.Profile, refs map[string]string) (int, error) {
	committed := 0
	for _, in := range ins {
		err := in.err
		meas := make([]index.PairMeasurement, len(in.pairs))
		for i, p := range in.pairs {
			if err == nil {
				err = p.err
			}
			meas[i] = index.PairMeasurement{Partner: p.cand.ID, Result: p.res}
		}
		if err != nil {
			c.obs.Counter("catalog_index_errors_total").Inc()
			return committed, err
		}
		if err := c.writer.CommitPlanned(in.entry, in.fingerprint, meas); err != nil {
			if errors.Is(err, index.ErrAlreadyIndexed) {
				continue
			}
			return committed, err
		}
		profiles[in.entry.ID] = in.prof
		// A task category's first model is its default reference.
		task := string(in.entry.Model.Task)
		if _, ok := refs[task]; !ok {
			refs[task] = in.entry.ID
		}
		committed++
	}
	return committed, nil
}

// runTask schedules fn on the bounded worker pool, tracking occupancy
// and wrapping the work in a span parented to ctx's current span and a
// catalog_<name>_ms histogram. A ctx canceled before the task acquires
// a worker slot skips fn entirely; the call's post-wait ctx.Err()
// check turns that into the caller's error.
func (c *Catalog) runTask(ctx context.Context, wg *sync.WaitGroup, name, detail string, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case c.sema <- struct{}{}:
		case <-ctx.Done():
			return
		}
		defer func() { <-c.sema }()
		if ctx.Err() != nil {
			return
		}
		c.obs.Gauge("catalog_workers_busy").Add(1)
		defer c.obs.Gauge("catalog_workers_busy").Add(-1)
		c.obs.Counter("catalog_tasks_total").Inc()
		_, span := c.obs.StartSpan(ctx, name, detail)
		defer func() { c.obs.Histogram("catalog_" + name + "_ms").Observe(span.End()) }()
		fn()
	}()
}
