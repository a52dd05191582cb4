package bench

import (
	"context"
	"fmt"
)

// Run executes one workload and returns its report. With cfg.Trace the
// run records spans (returned as the tracer) at half the population and
// half the time, then takes the per-layer metrics; end-to-end metrics
// come from untraced runs only.
func Run(ctx context.Context, cfg Config) (*Report, *Tracer, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer()
		cfg.Scale /= 2
		cfg.Seconds /= 2
	}
	h := NewHarness(tr)
	var rep *Report
	var err error
	switch cfg.Workload {
	case "ingest", "query_mix", "churn":
		rep, err = runEngineWorkload(ctx, cfg, h)
	case "hub_cluster":
		rep, err = runClusterWorkload(ctx, cfg, h)
	default:
		return nil, nil, fmt.Errorf("bench: unknown workload %q (have %v)", cfg.Workload, Workloads)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", cfg.Workload, err)
	}
	rep.Set("machine.ref_us", h.RefUS(), "us")
	rep.Set("machine.probe_share", float64(h.ProbeTime)/float64(h.ProbeTime+h.OpTime), "ratio")
	return rep, tr, nil
}
