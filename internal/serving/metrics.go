package serving

import (
	"strings"

	"sommelier/internal/obs"
)

// ObserveResult records one simulation outcome into an observer: the
// per-request latencies land in a serving_<policy>_latency_ms
// histogram (whose summary supplies p50/p95/p99 — the percentile path
// daemons report instead of re-sorting raw latency slices), and the
// switch economy lands in counters. A nil observer is a no-op.
func ObserveResult(o *obs.Observer, r Result) {
	p := MetricName(r.PolicyName)
	h := o.Histogram("serving_" + p + "_latency_ms")
	for _, l := range r.Latencies {
		h.Observe(l)
	}
	o.Counter("serving_" + p + "_requests_total").Add(int64(len(r.Latencies)))
	o.Counter("serving_" + p + "_switch_attempts_total").Add(int64(r.SwitchAttempts))
	o.Counter("serving_" + p + "_failed_switches_total").Add(int64(r.FailedSwitches))
}

// MetricName folds a policy name into metric-identifier form
// ("sommelier-switching" → "sommelier_switching"), the key under which
// ObserveResult registers that policy's metrics.
func MetricName(policy string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, policy)
}
