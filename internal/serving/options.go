package serving

import (
	"context"
	"fmt"

	"sommelier/internal/faults"
	"sommelier/internal/obs"
)

// Option configures a Simulator. Options compose left to right; later
// options win. This is the serving simulator's configuration surface:
// the Workload and FailureModel input structs accept no new fields
// (enforced by sommlint's optcheck), so new knobs arrive as Options.
type Option func(*simConfig)

// simConfig is the resolved simulator configuration.
type simConfig struct {
	servers int
	policy  Policy
	fm      FailureModel
	sched   *faults.Schedule
	obs     *obs.Observer
	clock   obs.Clock
	seed    uint64
}

// WithServers sets how many identical FIFO servers the simulator runs
// (default 1). Requests join the shortest backlog.
func WithServers(n int) Option {
	return func(c *simConfig) { c.servers = n }
}

// WithPolicy sets the model-selection policy — required. A stateful
// policy (SwitchCostPolicy) must not be shared between simulators.
func WithPolicy(p Policy) Option {
	return func(c *simConfig) { c.policy = p }
}

// WithFailureModel subjects model switches to the failure model: switch
// attempts fail with fm.SwitchFailProb and fall back to the previously
// deployed model. The failure sequence is drawn from a per-server
// faults.Schedule stream (see WithFaultSchedule for full window
// control), so it is byte-replayable and independent of how requests
// interleave across servers.
func WithFailureModel(fm FailureModel) Option {
	return func(c *simConfig) { c.fm = fm }
}

// WithFaultSchedule drives switch faults from an explicit
// faults.Schedule instead of a flat probability: the decision for the
// n-th switch attempt on server s comes from the schedule's
// SwitchTarget(s) stream, so switches can be killed for a window of
// operations, slowed (a Latency decision adds the load delay to the
// switched request), or flaked at a rate — byte-replayable from the
// schedule seed. A non-nil schedule takes precedence over
// WithFailureModel's probability.
func WithFaultSchedule(s *faults.Schedule) Option {
	return func(c *simConfig) { c.sched = s }
}

// WithObserver attaches an observability handle: every Run records its
// result through ObserveResult (per-policy latency histograms and
// switch counters) plus a serving_run_ms timing. A nil observer
// disables observation.
func WithObserver(o *obs.Observer) Option {
	return func(c *simConfig) { c.obs = o }
}

// WithClock overrides the clock used to time simulator runs into the
// observer's serving_run_ms histogram (default: the observer's own
// clock). Simulation time itself is virtual — arrival and service
// times come from the workload, never from a clock — so this only
// affects observation, not results.
func WithClock(clk obs.Clock) Option {
	return func(c *simConfig) { c.clock = clk }
}

// WithSeed sets the simulator's base seed: it drives the switch-failure
// schedule when the failure model's own Seed is zero, and the arrival
// process when the workload's Seed is zero. Equal seeds give
// byte-identical results.
func WithSeed(seed uint64) Option {
	return func(c *simConfig) { c.seed = seed }
}

// Simulator is the discrete-event inference-server simulator behind the
// paper's §7.1 tail-latency experiment, configured once and run against
// workloads. Construct with NewSimulator; a Simulator is cheap and
// single-use-safe, but stateful policies make sharing one across
// concurrent Runs unsafe.
type Simulator struct {
	cfg simConfig
}

// NewSimulator validates the options and returns a simulator. A policy
// is required; everything else has working defaults (one server, no
// faults, no observation).
func NewSimulator(opts ...Option) (*Simulator, error) {
	cfg := simConfig{servers: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.policy == nil {
		return nil, fmt.Errorf("serving: simulator needs a policy (WithPolicy)")
	}
	if cfg.servers <= 0 {
		cfg.servers = 1
	}
	if err := cfg.fm.validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg}, nil
}

// Run executes the workload on the simulator's servers under its policy
// and fault configuration. Cancelling ctx aborts the event loop between
// arrivals.
func (s *Simulator) Run(ctx context.Context, w Workload) (Result, error) {
	stop := s.timeRun()
	defer stop()
	res, err := runSim(ctx, s.cfg, w)
	if err != nil {
		return res, err
	}
	ObserveResult(s.cfg.obs, res)
	return res, nil
}

// RunRacing executes the workload under the paper's idealized scale-out
// configuration (two servers racing under light load) with the fixed
// model. The simulator's policy is not consulted — racing always serves
// one model — but its observer and clock are.
func (s *Simulator) RunRacing(ctx context.Context, w Workload, model ModelChoice) (Result, error) {
	stop := s.timeRun()
	defer stop()
	res, err := runRacing(ctx, s.cfg, w, model)
	if err != nil {
		return res, err
	}
	ObserveResult(s.cfg.obs, res)
	return res, nil
}

// timeRun times one Run into the observer's serving_run_ms histogram,
// through the configured clock when one was supplied.
func (s *Simulator) timeRun() func() {
	o := s.cfg.obs
	if o == nil {
		return func() {}
	}
	if s.cfg.clock == nil {
		stop := o.Time("serving_run_ms")
		return func() { stop() }
	}
	start := s.cfg.clock.NowNanos()
	return func() {
		o.Histogram("serving_run_ms").Observe(float64(s.cfg.clock.NowNanos()-start) / 1e6)
	}
}

// SwitchTarget names server s's model-switch stream in a
// faults.Schedule: the n-th switch attempted on that server draws the
// n-th decision of this target, regardless of what other servers do.
func SwitchTarget(server int) string {
	return fmt.Sprintf("server%d/switch", server)
}

// switchSchedule resolves the schedule driving switch faults: an
// explicit WithFaultSchedule wins; otherwise a flat SwitchFailProb
// becomes an always-open Flake window per server, seeded by the failure
// model's seed (falling back to the simulator seed); no faults at all
// yields nil.
func switchSchedule(cfg simConfig) *faults.Schedule {
	if cfg.sched != nil {
		return cfg.sched
	}
	if cfg.fm.SwitchFailProb <= 0 {
		return nil
	}
	seed := cfg.fm.Seed
	if seed == 0 {
		seed = cfg.seed
	}
	s := faults.NewSchedule(seed)
	for i := 0; i < cfg.servers; i++ {
		s.Set(SwitchTarget(i), faults.Flake(0, 0, cfg.fm.SwitchFailProb))
	}
	return s
}
