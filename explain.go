package sommelier

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sommelier/internal/query"
)

// StageTiming is one pipeline stage's measured duration, as recorded by
// the engine's tracer. Under a deterministic clock (obs.TickClock) the
// values are reproducible run to run.
type StageTiming struct {
	Stage  string  `json:"stage"`
	Millis float64 `json:"ms"`
}

// Explanation reports what each stage of the §5.4 filter pipeline did for
// one query — the introspection behind the paper's framing of Sommelier
// as an "explanation database for DNNs": not just which model was chosen,
// but why the others were not.
type Explanation struct {
	Query     string
	Reference string
	// SemanticCandidates is the stage-1 output size (candidates at or
	// above the threshold).
	SemanticCandidates int
	// SemanticRejected counts indexed models below the threshold.
	SemanticRejected int
	// ResourceRejected counts stage-1 survivors that failed a resource
	// constraint, per constraint.
	ResourceRejected map[string]int
	// Returned is the final result count after selection and LIMIT.
	Returned int
	// Results carries the final results for convenience.
	Results []Result
	// Stages holds the per-stage query span durations (parse,
	// candidates, filter, rank) in execution order.
	Stages []StageTiming
}

// String renders a human-readable explanation.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", e.Query)
	fmt.Fprintf(&b, "reference: %s\n", e.Reference)
	fmt.Fprintf(&b, "stage 1 (semantic): %d candidates pass, %d below threshold\n",
		e.SemanticCandidates, e.SemanticRejected)
	if len(e.ResourceRejected) == 0 {
		b.WriteString("stage 2 (resource): no constraints\n")
	} else {
		b.WriteString("stage 2 (resource):\n")
		keys := make([]string, 0, len(e.ResourceRejected))
		for k := range e.ResourceRejected {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s rejected %d candidates\n", k, e.ResourceRejected[k])
		}
	}
	fmt.Fprintf(&b, "stage 3 (selection): %d returned\n", e.Returned)
	if len(e.Stages) > 0 {
		b.WriteString("timings:\n")
		for _, s := range e.Stages {
			fmt.Fprintf(&b, "  %s: %.3fms\n", s.Stage, s.Millis)
		}
	}
	return b.String()
}

// ExplainContext runs the query while recording per-stage filtering
// decisions and per-stage span durations. It is parse plus the same
// executor every query path uses (queryOne) with a recorder attached,
// so Results are exactly what QueryContext returns for the same string
// against the same catalog state — including EXEC profiles and
// per-candidate cancellation; oracle_test.go pins both to
// the brute-force reading of the query. Like QueryASTContext, every
// stage reads one catalog snapshot, so the counts add up even under
// concurrent registration.
func (e *Engine) ExplainContext(ctx context.Context, q string) (*Explanation, error) {
	ctx, root := e.obs.StartSpan(ctx, "explain", "")
	defer func() { e.qm.total.Observe(root.End()) }()
	exp := &Explanation{ResourceRejected: make(map[string]int)}
	span := e.obs.StartLeaf(ctx, "parse")
	ast, err := query.Parse(q)
	e.endStage(&span, "parse", e.qm.parse, exp)
	if err == nil {
		exp.Query = ast.String()
		// Seed every constraint so zero-rejection constraints still appear
		// in the report (distinct from "no constraints at all").
		for _, con := range ast.Constraints {
			exp.ResourceRejected[con.String()] = 0
		}
		exp.Results, err = e.queryOne(ctx, e.cat.Snapshot(), ast, exp)
	}
	if err != nil {
		e.qm.errors.Inc()
		return nil, err
	}
	exp.Returned = len(exp.Results)
	return exp, nil
}
