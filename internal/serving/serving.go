// Package serving implements a discrete-event inference-server simulator
// for the paper's online case study (§7.1, Figure 9(c)): Poisson/bursty
// request arrivals, FIFO queueing, FLOPs-proportional service times, and
// four serving configurations — a fixed-model baseline, the ideal
// scale-out optimization, Sommelier-driven automatic model switching, and
// scale-out combined with switching.
//
// The substitution from real GPU serving is documented in DESIGN.md: the
// paper itself notes DNN inference latency is predictable from model
// size, so a service time proportional to model FLOPs reproduces the
// queueing dynamics that generate the tail-latency results.
//
// The configuration surface is ctx-first with functional options:
// NewSimulator(WithPolicy(...), WithServers(...), ...).Run(ctx, w).
package serving

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sommelier/internal/faults"
	"sommelier/internal/stats"
	"sommelier/internal/tensor"
)

// ModelChoice is one deployable model: an identity plus its service cost
// and quality level relative to the flagship model.
type ModelChoice struct {
	ID string
	// ServiceMS is the model's single-request service time.
	ServiceMS float64
	// Level is its functional-equivalence level to the flagship.
	Level float64
}

// Workload describes the arrival process.
//
// Every field shapes the arrival stream (arrivals);
// TestEveryInputFieldReachesItsConverter fails for a field that does
// not. Simulator knobs belong on Options, not here.
type Workload struct {
	// Requests is the total number of arrivals to simulate.
	Requests int
	// MeanArrivalMS is the mean inter-arrival gap of the Poisson
	// process during normal operation.
	MeanArrivalMS float64
	// Burst injects heavy-load phases: every BurstEvery requests, a
	// burst of BurstLen requests arrives with gaps divided by
	// BurstFactor.
	BurstEvery, BurstLen int
	BurstFactor          float64
	Seed                 uint64
}

// Policy selects which model serves a request given current conditions.
type Policy interface {
	// Choose returns the model for a request seeing queueLen requests
	// ahead of it.
	Choose(queueLen int) ModelChoice
	Name() string
}

// FixedPolicy always serves the flagship model — the paper's baseline
// where the developer hardcodes one model.
type FixedPolicy struct{ Model ModelChoice }

func (p FixedPolicy) Choose(int) ModelChoice { return p.Model }
func (p FixedPolicy) Name() string           { return "fixed" }

// SwitchingPolicy implements Sommelier-driven automatic model switching:
// under light load it serves the highest-quality model; as the queue
// grows it re-queries for progressively more compact equivalents. The
// Candidates list plays the role of the pre-registered equivalents a
// Sommelier query returns (highest quality first); Thresholds[i] is the
// queue length at which the policy steps down to Candidates[i+1].
type SwitchingPolicy struct {
	Candidates []ModelChoice
	Thresholds []int
}

// NewSwitchingPolicy builds a policy stepping through the candidates at
// evenly spaced queue thresholds (step, 2·step, ...).
func NewSwitchingPolicy(candidates []ModelChoice, step int) (*SwitchingPolicy, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("serving: switching policy needs candidates")
	}
	if step <= 0 {
		step = 4
	}
	thresholds := make([]int, len(candidates)-1)
	for i := range thresholds {
		thresholds[i] = (i + 1) * step
	}
	return &SwitchingPolicy{Candidates: candidates, Thresholds: thresholds}, nil
}

func (p *SwitchingPolicy) Choose(queueLen int) ModelChoice {
	idx := 0
	for idx < len(p.Thresholds) && queueLen >= p.Thresholds[idx] {
		idx++
	}
	return p.Candidates[idx]
}

func (p *SwitchingPolicy) Name() string { return "sommelier-switching" }

// Result is the outcome of one simulation run.
type Result struct {
	PolicyName string
	Servers    int
	// Latencies are per-request end-to-end latencies (queue + service)
	// in milliseconds, in arrival order.
	Latencies []float64
	// ModelShare counts requests served per model ID.
	ModelShare map[string]int
	// MeanLevel is the average equivalence level of the serving model
	// across requests — the accuracy cost of switching.
	MeanLevel float64
	// SwitchAttempts counts requests whose policy choice differed from
	// the model deployed on the serving server, i.e. attempted model
	// switches; FailedSwitches is how many of those the failure model
	// rejected (the request was then served by the previously deployed
	// model — graceful degradation, not an error).
	SwitchAttempts, FailedSwitches int
}

// Summary returns latency percentiles.
func (r Result) Summary() stats.Summary { return stats.Summarize(r.Latencies) }

// arrivals generates the request arrival times for a workload.
func arrivals(w Workload) []float64 {
	rng := tensor.NewRNG(w.Seed + 0xa221)
	times := make([]float64, w.Requests)
	t := 0.0
	burstLeft := 0
	for i := 0; i < w.Requests; i++ {
		gap := w.MeanArrivalMS * rng.ExpFloat64()
		if w.BurstEvery > 0 && i > 0 && i%w.BurstEvery == 0 {
			burstLeft = w.BurstLen
		}
		if burstLeft > 0 && w.BurstFactor > 1 {
			gap /= w.BurstFactor
			burstLeft--
		}
		t += gap
		times[i] = t
	}
	return times
}

// ctxCheckEvery is how many arrivals the event loops process between
// context checks — cheap enough to be invisible, frequent enough that
// cancellation lands promptly.
const ctxCheckEvery = 1024

// runSim is the core discrete-event loop, shared by every
// fixed-and-switching entry point. Requests join the shortest backlog
// (join-shortest-queue, the paper's even distribution under heavy
// load); each server is a FIFO processor. Switch faults are drawn from
// the resolved faults.Schedule: one decision per switch attempt, from
// the attempted server's own SwitchTarget stream.
func runSim(ctx context.Context, cfg simConfig, w Workload) (Result, error) {
	if w.Requests <= 0 || w.MeanArrivalMS <= 0 {
		return Result{}, fmt.Errorf("serving: workload needs positive requests and arrival gap")
	}
	if w.Seed == 0 {
		w.Seed = cfg.seed
	}
	servers := cfg.servers
	policy := cfg.policy
	sched := switchSchedule(cfg)
	arr := arrivals(w)
	// deployed[s] is the model currently installed on server s; a
	// policy choice differing from it is a switch attempt, which the
	// fault schedule may reject (the request then runs on the old model)
	// or slow (the load delay lands on the switched request).
	deployed := make([]ModelChoice, servers)
	haveDeployed := make([]bool, servers)
	// freeAt[s] is when server s finishes its backlog; backlog[s] holds
	// the finish times of requests assigned and not finished at the
	// current arrival.
	freeAt := make([]float64, servers)
	type pending struct{ finish float64 }
	backlog := make([][]pending, servers)

	res := Result{
		PolicyName: policy.Name(),
		Servers:    servers,
		Latencies:  make([]float64, 0, w.Requests),
		ModelShare: make(map[string]int),
	}
	var levelSum float64

	for i, at := range arr {
		if i%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("serving: simulation aborted: %w", err)
			}
		}
		// Retire finished work from backlogs.
		for s := range backlog {
			q := backlog[s]
			for len(q) > 0 && q[0].finish <= at {
				q = q[1:]
			}
			backlog[s] = q
		}
		// Join the shortest queue.
		best := 0
		for s := 1; s < servers; s++ {
			if len(backlog[s]) < len(backlog[best]) {
				best = s
			}
		}
		queueLen := len(backlog[best])
		choice := policy.Choose(queueLen)
		switch {
		case !haveDeployed[best]:
			deployed[best], haveDeployed[best] = choice, true
		case choice.ID != deployed[best].ID:
			res.SwitchAttempts++
			var d faults.Decision
			if sched != nil {
				d = sched.Next(SwitchTarget(best))
			}
			switch d.Kind {
			case faults.None:
				deployed[best] = choice
			case faults.Latency:
				// The switch succeeds but loading the new weights is
				// slow: the switched request absorbs the load delay.
				deployed[best] = choice
				choice.ServiceMS += float64(d.Latency) / float64(time.Millisecond)
			default:
				// ConnError / ServerError / Truncate all mean the new
				// model never arrived: fall back to the running model.
				res.FailedSwitches++
				choice = deployed[best]
			}
		}

		start := at
		if freeAt[best] > start {
			start = freeAt[best]
		}
		finish := start + choice.ServiceMS
		freeAt[best] = finish
		backlog[best] = append(backlog[best], pending{finish: finish})

		res.Latencies = append(res.Latencies, finish-at)
		res.ModelShare[choice.ID]++
		levelSum += choice.Level
	}
	res.MeanLevel = levelSum / float64(len(arr))
	return res, nil
}

// runRacing models the paper's idealized scale-out under light load:
// each request runs on both of two servers and the earlier completion
// counts; under heavy load (any backlog) requests are split evenly. It
// serves a fixed model, matching the "system optimizations only" bar.
func runRacing(ctx context.Context, cfg simConfig, w Workload, model ModelChoice) (Result, error) {
	if w.Requests <= 0 || w.MeanArrivalMS <= 0 {
		return Result{}, fmt.Errorf("serving: workload needs positive requests and arrival gap")
	}
	if w.Seed == 0 {
		w.Seed = cfg.seed
	}
	arr := arrivals(w)
	freeAt := [2]float64{}
	res := Result{
		PolicyName: "scale-out",
		Servers:    2,
		Latencies:  make([]float64, 0, w.Requests),
		ModelShare: map[string]int{model.ID: w.Requests},
		MeanLevel:  model.Level,
	}
	toggle := 0
	for i, at := range arr {
		if i%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("serving: simulation aborted: %w", err)
			}
		}
		idle0, idle1 := freeAt[0] <= at, freeAt[1] <= at
		if idle0 && idle1 {
			// Light load: race both servers; the earlier (identical
			// service time) wins, both become busy.
			finish := at + model.ServiceMS
			freeAt[0], freeAt[1] = finish, finish
			res.Latencies = append(res.Latencies, model.ServiceMS)
			continue
		}
		// Heavy load: round-robin across both servers.
		s := toggle
		toggle = 1 - toggle
		start := at
		if freeAt[s] > start {
			start = freeAt[s]
		}
		finish := start + model.ServiceMS
		freeAt[s] = finish
		res.Latencies = append(res.Latencies, finish-at)
	}
	return res, nil
}

// Comparison bundles the four Figure 9(c) configurations.
type Comparison struct {
	Baseline, ScaleOut, Switching, Combined Result
}

// SortedModelShare renders a result's per-model request counts in a
// stable order for reports.
func SortedModelShare(r Result) []string {
	ids := make([]string, 0, len(r.ModelShare))
	for id := range r.ModelShare {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("%s:%d", id, r.ModelShare[id])
	}
	return out
}
