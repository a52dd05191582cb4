package catalog

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"

	"sommelier/internal/cas"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/nn"
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
// per model rather than once per pair: an observation of one model on
// one probe set is two tasks over one executor, the sweep (an observe
// task) and the bound factor (a bound task), which a second free worker
// runs side by side; a pair task compares two models' evidence without
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
// the catalog's evidence table at plan time, or by joining the two
// halves of a fresh observation once both have run.
type observation struct {
	key      evidenceKey
	model    *graph.Model
	ident    cas.Identity // model's, from its entry; nil observes cold
	probesOf *graph.Model // its input shape selects the probe set
	ev       *equiv.Evidence
	err      error
	// A fresh observation's two halves fill part; the sweep's error
	// goes to err and the bound's to boundErr, each errSkipped until its
	// half has run.
	part     *equiv.Evidence
	boundErr error
}

// errSkipped marks an observation half that never ran: the call was
// canceled first, and returns before any pair or commit reads it.
var errSkipped = errors.New("catalog: observation canceled")

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
	entry     index.Entry
	pairs     []*plannedPair // in the plan's draw order
	footprint resource.Footprint
	err       error // profiling failure
}

// Index profiles, analyzes, and commits one model. Indexing an
// already indexed ID fails with an error wrapping
// index.ErrAlreadyIndexed. A canceled ctx aborts before commit.
func (c *Catalog) Index(ctx context.Context, id string, m *graph.Model) error {
	return c.IndexEntry(ctx, index.Entry{ID: id, Model: m})
}

// IndexEntry is Index of an entry, whose identity, when it has one,
// lets the observation skip what it shares with models seen before.
func (c *Catalog) IndexEntry(ctx context.Context, e index.Entry) error {
	ctx, root := c.obs.StartSpan(ctx, "catalog.index", e.ID)
	defer root.End()
	n, err := c.indexEntries(ctx, []index.Entry{e})
	if err == nil && n == 0 {
		err = fmt.Errorf("catalog: model %q %w", e.ID, index.ErrAlreadyIndexed)
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
	c.m.plan.Observe(span.End())
	if err != nil || len(ins) == 0 {
		return 0, err
	}

	// Observe, then compare (no lock): profile and fill the evidence
	// slots the table did not have, then measure every planned pair.
	// Each task writes its own slot: the WaitGroup is all the
	// synchronization.
	actx, stage := c.obs.StartSpan(ctx, "analyze", "")
	var wg sync.WaitGroup
	for _, in := range ins {
		c.runTask(actx, &wg, c.m.profile, in.entry.ID, func() {
			if in.footprint, in.err = c.profiler.Footprint(in.entry.Model); in.err != nil {
				in.err = fmt.Errorf("catalog: profiling %q: %w", in.entry.ID, in.err)
			}
		})
	}
	for _, o := range observations {
		if o.ev == nil {
			c.observe(actx, &wg, o)
		}
	}
	wg.Wait()
	for _, o := range observations {
		if o.part != nil {
			o.join()
		}
	}
	for _, in := range ins {
		for _, p := range in.pairs {
			c.runTask(actx, &wg, c.m.pair, p.ref.ID+"~"+p.cand.ID, func() {
				if p.res, p.err = c.analyze(p); p.err != nil {
					p.err = fmt.Errorf("catalog: analyzing %q vs %q: %w", p.ref.ID, p.cand.ID, p.err)
				}
			})
		}
	}
	wg.Wait()
	c.m.analyze.Observe(stage.End())
	if err := ctx.Err(); err != nil {
		c.m.canceled.Inc()
		return 0, err
	}

	// Commit (short lock): apply measurements in plan order and publish
	// once, covering both full and partial (error) commits.
	_, span = c.obs.StartSpan(ctx, "commit", "")
	defer func() { c.m.commit.Observe(span.End()) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.snap.Load()
	footprints, refs := maps.Clone(cur.footprints), maps.Clone(cur.refs)
	committed, err := c.commitLocked(ins, footprints, refs)
	for _, o := range observations {
		// Evidence is kept only for the model object the index holds:
		// not for an entry this call did not commit, nor for one that
		// lost its ID to a concurrent writer's model.
		if e, ok := c.writer.EntryOf(o.key.id); ok && e.Model == o.model && o.ev != nil {
			c.evidence[o.key] = o.ev
		}
	}
	c.publishLocked(footprints, refs)
	c.m.indexed.Add(int64(committed))
	return committed, err
}

// observe schedules a fresh observation as two pool tasks over one
// executor. The observe task builds the executor, hands the bound half
// to the pool and runs the sweep itself: with a second worker free the
// halves run side by side, with one the bound follows the sweep. Each
// half writes only its own error; join reads both once the pool drains.
// A model with identity sweeps from the deepest cut the prefix memo
// holds and bounds with the σ memo (prefix.go).
func (c *Catalog) observe(ctx context.Context, wg *sync.WaitGroup, o *observation) {
	o.part, o.err = new(equiv.Evidence), errSkipped
	if c.pairs.opts.Bound == equiv.BoundOn {
		o.boundErr = errSkipped
	}
	detail := o.key.id + " on " + o.key.probes
	c.runTask(ctx, wg, c.m.observe, detail, func() {
		c.m.observed.Inc()
		exec, err := nn.NewExecutor(o.model)
		if err != nil {
			o.err = fmt.Errorf("catalog: observing %q: %w", o.key.id, err)
			return
		}
		if c.pairs.opts.Bound == equiv.BoundOn {
			c.runTask(ctx, wg, c.m.bound, detail, func() { o.boundErr = o.part.Bound(exec, c.cushions(o.ident)) })
		}
		plan := c.planPrefix(exec, o.ident, o.key.probes)
		if plan == nil {
			o.err = o.part.Sweep(exec, c.pairs.probes.For(o.probesOf), nil)
			return
		}
		if o.err = o.part.Sweep(exec, c.pairs.probes.For(o.probesOf), &plan.pass); o.err == nil {
			c.storePrefix(plan)
		}
	})
}

// join settles a fresh observation once both halves have returned: its
// error is the sweep's, else the bound's, and it has evidence only when
// neither failed nor was skipped, so evidence that lacks its bound
// reaches neither a pair nor the table.
func (o *observation) join() {
	if o.err = cmp.Or(o.err, o.boundErr); o.err == nil {
		o.ev = o.part
	}
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
	inBatch := make(map[string]index.Entry, len(entries))
	for _, e := range entries {
		if e.ID == "" || e.Model == nil {
			return nil, nil, fmt.Errorf("catalog: batch entry must have an ID and a model")
		}
		if _, dup := inBatch[e.ID]; dup || c.writer.Contains(e.ID) {
			continue
		}
		inBatch[e.ID] = e
		fresh = append(fresh, e)
	}
	slots := make(map[evidenceKey]*observation)
	var observations []*observation
	slot := func(e index.Entry, probesOf *graph.Model) *observation {
		key := evidenceKey{e.ID, c.pairs.probes.key(probesOf)}
		o := slots[key]
		if o == nil {
			o = &observation{key: key, model: e.Model, ident: e.Identity, probesOf: probesOf, ev: c.evidence[key]}
			if o.ev != nil {
				c.m.evidenceHits.Inc()
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
				if partner, ok = inBatch[pid]; !ok {
					return nil, nil, fmt.Errorf("catalog: planned partner %q unknown", pid)
				}
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
// double insertion. Footprints and first-of-a-task default references
// go into the caller's clones of the two tables. Callers hold c.mu.
func (c *Catalog) commitLocked(ins []*insertion, footprints map[string]resource.Footprint, refs map[string]string) (int, error) {
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
			c.m.failed.Inc()
			return committed, err
		}
		if err := c.writer.CommitPlanned(in.entry, meas); err != nil {
			if errors.Is(err, index.ErrAlreadyIndexed) {
				continue
			}
			return committed, err
		}
		footprints[in.entry.ID] = in.footprint
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
// and wrapping the work in a span parented to ctx's current span and
// the kind's catalog_<name>_ms histogram. A ctx canceled before the
// task acquires a worker slot skips fn entirely; the call's post-wait
// ctx.Err() check turns that into the caller's error. A running task
// may schedule another on the same WaitGroup.
func (c *Catalog) runTask(ctx context.Context, wg *sync.WaitGroup, kind taskKind, detail string, fn func()) {
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
		c.m.busy.Add(1)
		defer c.m.busy.Add(-1)
		c.m.tasks.Inc()
		_, span := c.obs.StartSpan(ctx, kind.name, detail)
		defer func() { kind.ms.Observe(span.End()) }()
		fn()
	}()
}
