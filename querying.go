package sommelier

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"sommelier/internal/catalog"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/obs"
	"sommelier/internal/query"
	"sommelier/internal/resource"
)

// ErrUnknownReference is wrapped by query errors whose cause is that
// this engine's catalog does not hold the query's reference model (or
// holds no default reference for the task). It is query.ErrUnknownReference,
// the value a hub and a cluster coordinator test for with errors.Is.
var ErrUnknownReference = query.ErrUnknownReference

// ErrNoProfile is wrapped by query errors whose cause is an indexed
// model with no resource profile — an index inconsistency, since the
// pipeline profiles every model it commits. A *reference* model without
// a profile fails the query with this error; a *candidate* without one
// is skipped and counted in query_skipped_no_profile_total instead of
// competing with a zero-valued profile it would trivially win resource
// ranking with.
var ErrNoProfile = errors.New("sommelier: indexed model has no resource profile")

// QueryContext parses and executes a query string. The whole query —
// parse → candidates → filter → rank — is traced as one span tree and
// timed into the engine's per-stage query histograms.
func (e *Engine) QueryContext(ctx context.Context, q string) ([]Result, error) {
	ctx, root := e.obs.StartSpan(ctx, "query", "")
	defer func() { e.qm.total.Observe(root.End()) }()
	span := e.obs.StartLeaf(ctx, "parse")
	ast, err := query.Parse(q)
	e.endStage(&span, "parse", e.qm.parse, nil)
	if err != nil {
		e.qm.errors.Inc()
		return nil, err
	}
	return e.queryAST(ctx, ast)
}

// QueryASTContext executes a parsed query through the three-stage
// pipeline (§5.4). The whole query runs against one catalog snapshot,
// so its answer is internally consistent — and lock-free — no matter
// how many models are being registered concurrently. q is validated
// first, since it may not have come through query.Parse.
func (e *Engine) QueryASTContext(ctx context.Context, q *query.Query) ([]Result, error) {
	ctx, root := e.obs.StartSpan(ctx, "query", "")
	defer func() { e.qm.total.Observe(root.End()) }()
	if err := e.validateAST(q); err != nil {
		e.qm.errors.Inc()
		return nil, err
	}
	return e.queryAST(ctx, q)
}

// validateAST checks a query that did not come through query.Parse
// (which validates) before it reaches queryOne, counting an invalid one
// as a query, as queryOne would have.
func (e *Engine) validateAST(q *query.Query) error {
	if err := q.Validate(); err != nil {
		e.qm.queries.Inc()
		return err
	}
	return nil
}

// queryAST is the shared single-query execution body over one fresh
// snapshot. Batches share one across queries instead (see batch.go);
// the per-query execution is the same queryOne either way, which is
// what makes batch answers byte-identical to serial ones.
func (e *Engine) queryAST(ctx context.Context, q *query.Query) ([]Result, error) {
	results, err := e.queryOne(ctx, e.cat.Snapshot(), q, nil)
	if err != nil {
		e.qm.errors.Inc()
		return nil, err
	}
	return results, nil
}

// queryOne is the engine's only query executor: Query, QueryAST, the
// batch entry points, Explain and (through the shard engines) the
// cluster coordinator all end here. It runs one validated query against
// an already-acquired snapshot. ctx carries the caller's root span; each
// stage opens a leaf span under it and feeds the matching histogram. A
// non-nil exp additionally records what each stage did (Explain); it
// never changes the results.
func (e *Engine) queryOne(ctx context.Context, snap *catalog.Snapshot, q *query.Query,
	exp *Explanation) ([]Result, error) {
	e.qm.queries.Inc()
	refID := q.Ref
	if refID == "" {
		id, ok := snap.DefaultReference(q.Task)
		if !ok {
			return nil, fmt.Errorf("%w: no default reference for task %q", ErrUnknownReference, q.Task)
		}
		refID = id
	}
	if !snap.Contains(refID) {
		return nil, fmt.Errorf("%w: %q is not indexed", ErrUnknownReference, refID)
	}
	if _, ok := snap.Profile(refID); !ok {
		return nil, fmt.Errorf("%w: reference model %q", ErrNoProfile, refID)
	}

	// Stage 1: semantic filter.
	span := e.obs.StartLeaf(ctx, "candidates")
	cands, err := snap.Lookup(refID, q.Threshold)
	if exp != nil && err == nil {
		all, _ := snap.Lookup(refID, 0) // the same list uncut: fails only where the cut one did
		exp.Reference = refID
		exp.SemanticCandidates, exp.SemanticRejected = len(cands), len(all)-len(cands)
	}
	e.endStage(&span, "candidates", e.qm.candidates, exp)
	if err != nil {
		return nil, err
	}

	// Every profile the query compares, the reference's included, is
	// derived from the indexed footprints under the query's execution
	// setting (§5.3: batch size and precision shift real footprints) —
	// the default one without an EXEC spec.
	setting, err := execSetting(q.Exec)
	if err != nil {
		return nil, err
	}
	refProf, _ := snap.ProfileUnder(refID, setting)

	// Stage 2: resource filter.
	span = e.obs.StartLeaf(ctx, "filter")
	results, err := e.resourceFilter(ctx, q, snap, cands, refProf, setting, exp)
	e.endStage(&span, "filter", e.qm.filter, exp)
	if err != nil {
		return nil, err
	}

	// Stage 3: final selection.
	span = e.obs.StartLeaf(ctx, "rank")
	query.SortResults(results, q.Pick)
	if q.Limit > 0 && len(results) > q.Limit {
		results = results[:q.Limit]
	}
	e.endStage(&span, "rank", e.qm.rank, exp)
	return results, nil
}

// endStage closes one pipeline stage's span, feeds its histogram and,
// for Explain, appends its duration to the explanation.
func (e *Engine) endStage(span *obs.Span, stage string, hist *obs.Histogram, exp *Explanation) {
	ms := span.End()
	hist.Observe(ms)
	if exp != nil {
		exp.Stages = append(exp.Stages, StageTiming{Stage: stage, Millis: ms})
	}
}

// resourceFilter is stage 2: one exact loop over the stage-1
// candidates. Each candidate's profile under the query's setting is
// compared with every constraint; this is the only place a constraint
// meets a profile. ctx is re-checked per candidate, so cancelling the
// query stops the work instead of letting the loop grind through the
// remaining candidates.
func (e *Engine) resourceFilter(ctx context.Context, q *query.Query, snap *catalog.Snapshot,
	cands []index.Candidate, refProf resource.Profile, setting resource.ExecSetting,
	exp *Explanation) ([]Result, error) {
	var results []Result
	for _, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prof, ok := snap.ProfileUnder(candProfileID(c), setting)
		if !ok {
			// An indexed candidate without a profile must not compete
			// with a zero-valued one — it would trivially satisfy every
			// upper bound and win PICK SMALLEST/FASTEST/CHEAPEST.
			e.obs.Counter("query_skipped_no_profile_total").Inc()
			continue
		}
		keep := true
		for _, con := range q.Constraints {
			pass, err := satisfies(con, prof, refProf)
			if err != nil {
				return nil, err
			}
			if pass {
				continue
			}
			keep = false
			if exp == nil {
				break // a plain query stops at the first failing constraint
			}
			exp.ResourceRejected[con.String()]++ // Explain counts every one
		}
		if keep {
			results = append(results, candResult(c, prof))
		}
	}
	return results, nil
}

// candResult builds the engine result for one surviving candidate.
func candResult(c index.Candidate, prof resource.Profile) Result {
	return Result{
		ID:          candProfileID(c),
		Level:       c.Level,
		Synthesized: c.Kind == index.KindSynthesized,
		DonorID:     c.DonorID,
		Segment:     c.Segment,
		Derived:     c.Derived,
		Profile:     prof,
	}
}

// TopEquivalents returns the reference's K best semantic candidates — the
// primitive behind the DNN-testing case study and Figure 13. Candidates
// missing a resource profile are skipped (and counted in
// query_skipped_no_profile_total) rather than returned with a
// zero-valued profile.
func (e *Engine) TopEquivalents(refID string, k int) ([]Result, error) {
	snap := e.cat.Snapshot()
	cands, err := snap.TopK(refID, k)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(cands))
	for _, c := range cands {
		prof, ok := snap.Profile(c.ID)
		if !ok {
			e.obs.Counter("query_skipped_no_profile_total").Inc()
			continue
		}
		out = append(out, candResult(c, prof))
	}
	return out, nil
}

// Materialize loads the concrete model for a result. Synthesized results
// are built on demand by transplanting the donor segment (§5.2 lookup
// case (ii)).
func (e *Engine) Materialize(r Result) (*graph.Model, error) {
	base, err := e.store.Load(r.ID)
	if err != nil {
		return nil, err
	}
	if !r.Synthesized {
		return base, nil
	}
	donor, err := e.store.Load(r.DonorID)
	if err != nil {
		return nil, err
	}
	minLen := e.cfg.cat.SegmentMinLen
	if minLen <= 0 {
		minLen = 3
	}
	pairs, err := equiv.CommonSegments(base, donor, minLen)
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("sommelier: synthesized segments no longer present between %q and %q",
			r.ID, r.DonorID)
	}
	out := base
	for _, p := range pairs {
		p.A.Model = out
		twin, err := equiv.SynthesizeReplacement(out, p)
		if err != nil {
			return nil, err
		}
		out = twin
	}
	return out, nil
}

// candProfileID returns the ID whose resource profile represents the
// candidate: synthesized models share their base's architecture, hence
// its profile.
func candProfileID(c index.Candidate) string { return c.ID }

// execSetting translates a query's EXEC spec into a resource execution
// setting: the default setting with the spec's keys applied. Recognized
// keys: batch (int), precision (fp16|fp32), overhead (fraction).
// Unknown keys are ignored so serving systems can pass opaque hints
// through.
func execSetting(exec map[string]string) (resource.ExecSetting, error) {
	s := resource.DefaultSetting()
	if v, ok := exec["batch"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return s, fmt.Errorf("sommelier: bad EXEC batch %q", v)
		}
		s.BatchSize = n
	}
	if v, ok := exec["precision"]; ok {
		switch v {
		case "fp16":
			s.ActivationBytes = 2
		case "fp32":
			s.ActivationBytes = 4
		default:
			return s, fmt.Errorf("sommelier: bad EXEC precision %q", v)
		}
	}
	if v, ok := exec["overhead"]; ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			return s, fmt.Errorf("sommelier: bad EXEC overhead %q", v)
		}
		s.RuntimeOverhead = f
	}
	return s, nil
}

// absoluteValue resolves a constraint to the metric's native unit
// (bytes, FLOPs, milliseconds).
func absoluteValue(c query.Constraint, ref resource.Profile) (float64, error) {
	if c.Relative() {
		frac := c.Value / 100
		switch c.Metric {
		case query.MetricMemory:
			return frac * float64(ref.MemoryBytes), nil
		case query.MetricFLOPs:
			return frac * float64(ref.FLOPs), nil
		case query.MetricLatency:
			return frac * ref.LatencyMS, nil
		}
	}
	switch c.Unit {
	case query.UnitMB:
		return c.Value * (1 << 20), nil
	case query.UnitGB:
		return c.Value * (1 << 30), nil
	case query.UnitGFLOPs:
		return c.Value * 1e9, nil
	case query.UnitTFLOPs:
		return c.Value * 1e12, nil
	case query.UnitMS, query.UnitNone:
		return c.Value, nil
	}
	return 0, fmt.Errorf("sommelier: cannot resolve constraint %s", c)
}

// satisfies checks one constraint against a candidate profile by plain
// arithmetic; constraints AND together, so duplicate bounds and ranges
// need no special handling. A constraint that cannot be resolved to an
// absolute value is an error, not a silent rejection — swallowing it
// would drop candidates without a trace on malformed constraints that
// Validate missed.
func satisfies(c query.Constraint, p, ref resource.Profile) (bool, error) {
	limit, err := absoluteValue(c, ref)
	if err != nil {
		return false, err
	}
	var v float64
	switch c.Metric {
	case query.MetricMemory:
		v = float64(p.MemoryBytes)
	case query.MetricFLOPs:
		v = float64(p.FLOPs)
	case query.MetricLatency:
		v = p.LatencyMS
	}
	switch c.Op {
	case query.OpLT:
		return v < limit, nil
	case query.OpLE:
		return v <= limit, nil
	case query.OpGT:
		return v > limit, nil
	case query.OpGE:
		return v >= limit, nil
	case query.OpEQ:
		// Equality on continuous profiles means "within 5%".
		return v >= limit*0.95 && v <= limit*1.05, nil
	}
	return true, nil
}
