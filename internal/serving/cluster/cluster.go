// Package cluster generalizes the single-server serving simulator
// (internal/serving) to a multi-instance serving cluster on a shared
// virtual clock — the BLIS-style substrate the ROADMAP's "heavy traffic
// from millions of users" scenarios run on. N instances each run the
// existing switch-policy simulation (deployed model, FIFO queue,
// FLOPs-proportional service times); a pluggable Router spreads
// requests across them (round-robin, least-loaded, model-affinity via
// the hub cluster ring's series-aware placement keys); a pluggable
// Admission controller (token bucket) sheds load at the front door; and
// instance kill/slow fault windows come from faults.Schedule, the same
// per-target seeded streams the hub chaos suite replays.
//
// The simulation is a discrete-event loop: one event heap ordered by
// (virtual time, completion-before-arrival, push order) drives arrivals
// and service completions for all instances against one shared clock.
// Everything is deterministic for a fixed seed — workload generation,
// routing, admission, fault decisions and metric aggregation depend
// only on inputs, never on wall clocks, map order or global randomness
// (detcheck-enforced) — so two runs of the same scenario produce
// byte-identical per-class summaries at any instance count.
//
// Results are reported per SLO class: latency percentiles (raw, plus
// obs histograms when an Observer is attached), SLO attainment against
// each class's latency target, and a Jain fairness index across
// classes — the numbers that say not just how fast the cluster is, but
// who the tail lands on.
package cluster

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	hubcluster "sommelier/internal/cluster"
	"sommelier/internal/faults"
	"sommelier/internal/obs"
	"sommelier/internal/serving"
	"sommelier/internal/stats"
)

// Class is one SLO class: a share of the generated traffic and a
// per-request latency objective.
type Class struct {
	// Name identifies the class ("gold", "batch", …).
	Name string
	// Weight is the class's share of generated traffic (weights are
	// normalized; ignored for trace replay, where the trace assigns
	// classes).
	Weight float64
	// TargetMS is the class's latency objective. Zero or negative means
	// the class has no SLO; its attainment reports as 1.
	TargetMS float64
}

// Request is one inference request entering the cluster.
type Request struct {
	// Seq is the request's position in the workload stream (assigned by
	// the Source).
	Seq int64
	// ArriveMS is the arrival time on the shared virtual clock.
	ArriveMS float64
	// Class names the request's SLO class.
	Class string
	// Series is the model-family affinity key (the zoo's scaling-law
	// series): requests of one series prefer one instance under the
	// affinity router, so the deployed model stays warm. Empty means no
	// affinity.
	Series string
}

// InstanceView is the router's read-only view of one instance at a
// routing decision.
type InstanceView struct {
	// ID is the instance index.
	ID int
	// QueueLen counts requests assigned and unfinished (waiting plus in
	// service) — the same backlog the switching policies key off.
	QueueLen int
	// Deployed is the currently installed model's ID ("" before the
	// first request).
	Deployed string
}

// Option configures a Sim.
type Option func(*config)

type config struct {
	instances int
	newPolicy func() serving.Policy
	router    Router
	admission Admission
	classes   []Class
	fm        serving.FailureModel
	sched     *faults.Schedule
	obs       *obs.Observer
	clock     obs.Clock
	seed      uint64
}

// WithInstances sets the number of serving instances (default 1).
func WithInstances(n int) Option {
	return func(c *config) { c.instances = n }
}

// WithPolicy sets the per-instance policy factory — required. Each
// instance gets its own policy from the factory, so stateful policies
// (SLOPolicy, SwitchCostPolicy) track their own instance's deployments.
func WithPolicy(newPolicy func() serving.Policy) Option {
	return func(c *config) { c.newPolicy = newPolicy }
}

// WithRouter sets the instance-selection router (default round-robin).
func WithRouter(r Router) Option {
	return func(c *config) { c.router = r }
}

// WithAdmission sets the admission controller (default: admit all).
func WithAdmission(a Admission) Option {
	return func(c *config) { c.admission = a }
}

// WithClasses declares the SLO classes: their traffic weights (for
// generated workloads) and latency targets. Classes observed in a
// trace but not declared here are reported with no SLO.
func WithClasses(classes ...Class) Option {
	return func(c *config) { c.classes = append([]Class(nil), classes...) }
}

// WithFailureModel subjects model switches on every instance to the
// failure model, exactly as in the single-server simulator: the n-th
// switch attempt on instance i draws from the SwitchTarget(i) stream.
func WithFailureModel(fm serving.FailureModel) Option {
	return func(c *config) { c.fm = fm }
}

// WithFaultSchedule drives instance availability and switch faults from
// an explicit faults.Schedule: the n-th request routed to instance i
// draws the InstanceTarget(i) stream (ConnError/ServerError ⇒ the
// instance is down for that request and the cluster fails over;
// Latency ⇒ the request is served with the injected delay added), and
// switch attempts draw the SwitchTarget(i) stream. Per-target streams
// make every fault window byte-replayable from the schedule seed.
func WithFaultSchedule(s *faults.Schedule) Option {
	return func(c *config) { c.sched = s }
}

// WithObserver attaches an observability handle: per-class latency
// histograms (servecluster_<class>_latency_ms) and admission/fault
// counters, plus a servecluster_run_ms run timing.
func WithObserver(o *obs.Observer) Option {
	return func(c *config) { c.obs = o }
}

// WithClock overrides the clock used to time Run into the observer
// (default: the observer's own clock). Simulation time is virtual and
// never reads a clock, so results are unaffected.
func WithClock(clk obs.Clock) Option {
	return func(c *config) { c.clock = clk }
}

// WithSeed sets the base seed: it drives the internally built
// switch-failure schedule when the failure model's Seed is zero.
// Workload randomness is owned by the Source's own seed.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// Sim is the multi-instance serving-cluster simulator. Construct with
// New; a Sim is single-use per Run when its router, admission
// controller or policies carry state (they usually do), so build a
// fresh Sim per scenario cell.
type Sim struct {
	cfg config
}

// New validates the options and returns a simulator.
func New(opts ...Option) (*Sim, error) {
	cfg := config{instances: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.newPolicy == nil {
		return nil, fmt.Errorf("serving/cluster: simulator needs a policy factory (WithPolicy)")
	}
	if cfg.instances <= 0 {
		cfg.instances = 1
	}
	if cfg.fm.SwitchFailProb < 0 || cfg.fm.SwitchFailProb > 1 {
		return nil, fmt.Errorf("serving/cluster: switch failure probability %v outside [0,1]", cfg.fm.SwitchFailProb)
	}
	if cfg.router == nil {
		cfg.router = NewRoundRobin()
	}
	if cfg.admission == nil {
		cfg.admission = AdmitAll()
	}
	seen := make(map[string]bool, len(cfg.classes))
	for _, cl := range cfg.classes {
		if cl.Name == "" {
			return nil, fmt.Errorf("serving/cluster: class with empty name")
		}
		if seen[cl.Name] {
			return nil, fmt.Errorf("serving/cluster: duplicate class %q", cl.Name)
		}
		seen[cl.Name] = true
	}
	return &Sim{cfg: cfg}, nil
}

// InstanceTarget names instance i's availability stream in a
// faults.Schedule: the n-th request routed to that instance draws the
// n-th decision of this target.
func InstanceTarget(instance int) string {
	return fmt.Sprintf("instance%d", instance)
}

// SwitchTarget names instance i's model-switch stream: the n-th switch
// attempted on that instance draws the n-th decision.
func SwitchTarget(instance int) string {
	return fmt.Sprintf("instance%d/switch", instance)
}

// event kinds, ordered so a completion at time t frees its instance
// before an arrival at the same t is routed (mirroring the
// single-server simulator's `finish <= at` backlog retirement).
const (
	evDone = iota
	evArrival
)

// event is one entry of the shared-clock heap.
type event struct {
	at   float64
	kind int
	push int64 // global push counter: the deterministic tie-break
	inst int   // evDone: which instance completed
	req  Request
}

// eventHeap orders events by (at, kind, push).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].push < h[j].push
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// job is one admitted request bound to an instance.
type job struct {
	req     Request
	svcMS   float64
	level   float64
	modelID string
}

// instance is one simulated serving instance.
type instance struct {
	policy       serving.Policy
	deployed     serving.ModelChoice
	haveDeployed bool
	busy         bool
	queue        []job
}

func (in *instance) queueLen() int {
	n := len(in.queue)
	if in.busy {
		n++
	}
	return n
}

// classAgg accumulates one class's statistics during a run.
type classAgg struct {
	target    float64
	arrived   int64
	rejected  int64
	failed    int64
	served    int64
	latencies []float64
	levelSum  float64
}

// runState is the mutable state of one Run.
type runState struct {
	cfg       config
	sched     *faults.Schedule
	instances []*instance
	events    eventHeap
	pushes    int64
	processed int64

	classes map[string]*classAgg

	requests       int64
	rejected       int64
	failed         int64
	failovers      int64
	switchAttempts int64
	failedSwitches int64
}

// Run drives the workload source through the cluster to exhaustion and
// returns the per-class results. Cancelling ctx aborts the event loop.
func (s *Sim) Run(ctx context.Context, src Source) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("serving/cluster: nil workload source")
	}
	stop := s.timeRun()
	defer stop()

	st := &runState{
		cfg:     s.cfg,
		sched:   s.resolveSchedule(),
		classes: make(map[string]*classAgg),
	}
	for _, cl := range s.cfg.classes {
		st.classes[cl.Name] = &classAgg{target: cl.TargetMS}
	}
	for i := 0; i < s.cfg.instances; i++ {
		st.instances = append(st.instances, &instance{policy: s.cfg.newPolicy()})
	}

	if req, ok := src.Next(); ok {
		st.pushEvent(event{at: req.ArriveMS, kind: evArrival, req: req})
	}
	for st.events.Len() > 0 {
		st.processed++
		if st.processed%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("serving/cluster: simulation aborted: %w", err)
			}
		}
		e := heap.Pop(&st.events).(event)
		switch e.kind {
		case evArrival:
			st.arrive(e.req, e.at)
			if req, ok := src.Next(); ok {
				st.pushEvent(event{at: req.ArriveMS, kind: evArrival, req: req})
			}
		case evDone:
			st.complete(e.inst, e.at)
		}
	}
	res := st.result(s.cfg, src)
	return res, nil
}

// resolveSchedule picks the fault schedule: an explicit one wins; a
// flat switch-failure probability becomes an always-open Flake window
// per instance's switch target; no faults yields nil.
func (s *Sim) resolveSchedule() *faults.Schedule {
	if s.cfg.sched != nil {
		return s.cfg.sched
	}
	if s.cfg.fm.SwitchFailProb <= 0 {
		return nil
	}
	seed := s.cfg.fm.Seed
	if seed == 0 {
		seed = s.cfg.seed
	}
	sched := faults.NewSchedule(seed)
	for i := 0; i < s.cfg.instances; i++ {
		sched.Set(SwitchTarget(i), faults.Flake(0, 0, s.cfg.fm.SwitchFailProb))
	}
	return sched
}

// timeRun times one Run into the observer's servecluster_run_ms
// histogram, through the configured clock when one was supplied.
func (s *Sim) timeRun() func() {
	o := s.cfg.obs
	if o == nil {
		return func() {}
	}
	if s.cfg.clock == nil {
		stop := o.Time("servecluster_run_ms")
		return func() { stop() }
	}
	start := s.cfg.clock.NowNanos()
	return func() {
		o.Histogram("servecluster_run_ms").Observe(float64(s.cfg.clock.NowNanos()-start) / 1e6)
	}
}

func (st *runState) pushEvent(e event) {
	e.push = st.pushes
	st.pushes++
	heap.Push(&st.events, e)
}

// agg returns the class aggregate, creating one (with no SLO) for
// classes the configuration did not declare.
func (st *runState) agg(class string) *classAgg {
	a := st.classes[class]
	if a == nil {
		a = &classAgg{}
		st.classes[class] = a
	}
	return a
}

// arrive handles one request arrival at virtual time now: admission,
// routing with fault-window failover, policy choice with switch
// faults, and enqueue or service start.
func (st *runState) arrive(req Request, now float64) {
	o := st.cfg.obs
	a := st.agg(req.Class)
	a.arrived++
	st.requests++
	o.Counter("servecluster_requests_total").Inc()

	if !st.cfg.admission.Admit(now) {
		a.rejected++
		st.rejected++
		o.Counter("servecluster_rejected_total").Inc()
		return
	}

	views := make([]InstanceView, len(st.instances))
	for i, in := range st.instances {
		views[i] = InstanceView{ID: i, QueueLen: in.queueLen(), Deployed: in.deployed.ID}
	}
	first := st.cfg.router.Route(req, views)
	if first < 0 || first >= len(st.instances) {
		first = 0
	}

	// Try the router's pick, then fail over across the remaining
	// instances in least-loaded order. Every attempt draws one decision
	// from the tried instance's own availability stream, so fault
	// windows line up with per-instance request counts no matter how
	// routing interleaves.
	order := st.failoverOrder(first, views)
	var slowMS float64
	chosen := -1
	for attempt, i := range order {
		d := faults.Decision{}
		if st.sched != nil {
			d = st.sched.Next(InstanceTarget(i))
		}
		switch d.Kind {
		case faults.ConnError, faults.ServerError, faults.Truncate:
			continue // instance down for this request
		case faults.Latency:
			slowMS = float64(d.Latency) / float64(time.Millisecond)
		}
		chosen = i
		if attempt > 0 {
			st.failovers++
			o.Counter("servecluster_failovers_total").Inc()
		}
		break
	}
	if chosen < 0 {
		a.failed++
		st.failed++
		o.Counter("servecluster_failed_total").Inc()
		return
	}

	in := st.instances[chosen]
	choice := in.policy.Choose(in.queueLen())
	switch {
	case !in.haveDeployed:
		in.deployed, in.haveDeployed = choice, true
	case choice.ID != in.deployed.ID:
		st.switchAttempts++
		o.Counter("servecluster_switch_attempts_total").Inc()
		d := faults.Decision{}
		if st.sched != nil {
			d = st.sched.Next(SwitchTarget(chosen))
		}
		switch d.Kind {
		case faults.None:
			in.deployed = choice
		case faults.Latency:
			in.deployed = choice
			choice.ServiceMS += float64(d.Latency) / float64(time.Millisecond)
		default:
			st.failedSwitches++
			o.Counter("servecluster_failed_switches_total").Inc()
			choice = in.deployed
		}
	}

	j := job{req: req, svcMS: choice.ServiceMS + slowMS, level: choice.Level, modelID: choice.ID}
	if in.busy {
		in.queue = append(in.queue, j)
		return
	}
	in.busy = true
	st.startService(in, j, now)
}

// failoverOrder is the instance try-order for one request: the router's
// pick first, then the rest by (queue length, id).
func (st *runState) failoverOrder(first int, views []InstanceView) []int {
	order := make([]int, 0, len(views))
	order = append(order, first)
	rest := make([]int, 0, len(views)-1)
	for i := range views {
		if i != first {
			rest = append(rest, i)
		}
	}
	sort.Slice(rest, func(a, b int) bool {
		if views[rest[a]].QueueLen != views[rest[b]].QueueLen {
			return views[rest[a]].QueueLen < views[rest[b]].QueueLen
		}
		return rest[a] < rest[b]
	})
	return append(order, rest...)
}

// startService begins serving j on in at virtual time now. The finish
// time is known immediately (FIFO, non-preemptive), so the request's
// latency is recorded here and a completion event is scheduled.
func (st *runState) startService(in *instance, j job, now float64) {
	finish := now + j.svcMS
	lat := finish - j.req.ArriveMS
	a := st.agg(j.req.Class)
	a.served++
	a.latencies = append(a.latencies, lat)
	a.levelSum += j.level
	st.cfg.obs.Histogram("servecluster_" + serving.MetricName(j.req.Class) + "_latency_ms").Observe(lat)
	idx := -1
	for i, cand := range st.instances {
		if cand == in {
			idx = i
			break
		}
	}
	st.pushEvent(event{at: finish, kind: evDone, inst: idx})
}

// complete handles a service completion on instance i: pull the next
// queued job, if any.
func (st *runState) complete(i int, now float64) {
	in := st.instances[i]
	if len(in.queue) == 0 {
		in.busy = false
		return
	}
	j := in.queue[0]
	in.queue = in.queue[1:]
	st.startService(in, j, now)
}

// ClassResult is one SLO class's outcome.
type ClassResult struct {
	Class    string  `json:"class"`
	TargetMS float64 `json:"target_ms"`
	Arrived  int64   `json:"arrived"`
	Rejected int64   `json:"rejected"`
	Failed   int64   `json:"failed"`
	Served   int64   `json:"served"`
	// P50/P95/P99/Max are the served requests' latency percentiles.
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
	// Attainment is the fraction of served requests meeting TargetMS
	// (1 when the class has no SLO).
	Attainment float64 `json:"slo_attainment"`
	// MeanLevel is the average equivalence level served to the class.
	MeanLevel float64 `json:"mean_level"`
}

// Result is one cluster simulation's outcome.
type Result struct {
	Policy    string `json:"policy"`
	Router    string `json:"router"`
	Admission string `json:"admission"`
	Workload  string `json:"workload"`
	Instances int    `json:"instances"`

	Requests       int64 `json:"requests"`
	Rejected       int64 `json:"rejected"`
	Failed         int64 `json:"failed"`
	Failovers      int64 `json:"failovers"`
	SwitchAttempts int64 `json:"switch_attempts"`
	FailedSwitches int64 `json:"failed_switches"`

	// Classes are the per-SLO-class results, sorted by class name.
	Classes []ClassResult `json:"classes"`
	// Fairness is the Jain index over per-class SLO attainment (classes
	// that served at least one request); 1 means every class meets its
	// SLO equally.
	Fairness float64 `json:"fairness"`
}

// result freezes the run state into a Result with a deterministic class
// order.
func (st *runState) result(cfg config, src Source) *Result {
	res := &Result{
		Policy:         st.policyName(cfg),
		Router:         cfg.router.Name(),
		Admission:      cfg.admission.Name(),
		Workload:       src.Name(),
		Instances:      cfg.instances,
		Requests:       st.requests,
		Rejected:       st.rejected,
		Failed:         st.failed,
		Failovers:      st.failovers,
		SwitchAttempts: st.switchAttempts,
		FailedSwitches: st.failedSwitches,
	}
	names := make([]string, 0, len(st.classes))
	for name := range st.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	var attain []float64
	for _, name := range names {
		a := st.classes[name]
		cr := ClassResult{
			Class:    name,
			TargetMS: a.target,
			Arrived:  a.arrived,
			Rejected: a.rejected,
			Failed:   a.failed,
			Served:   a.served,
		}
		if a.served > 0 {
			cr.P50 = stats.Percentile(a.latencies, 50)
			cr.P95 = stats.Percentile(a.latencies, 95)
			cr.P99 = stats.Percentile(a.latencies, 99)
			cr.Max = stats.Max(a.latencies)
			cr.MeanLevel = a.levelSum / float64(a.served)
			cr.Attainment = attainment(a.latencies, a.target)
			attain = append(attain, cr.Attainment)
		}
		res.Classes = append(res.Classes, cr)
	}
	res.Fairness = JainIndex(attain)
	return res
}

// policyName reads one policy instance's name without consuming any of
// the per-instance policies.
func (st *runState) policyName(cfg config) string {
	return cfg.newPolicy().Name()
}

// attainment is the fraction of latencies meeting target; 1 when the
// class has no SLO.
func attainment(latencies []float64, targetMS float64) float64 {
	if targetMS <= 0 {
		return 1
	}
	return serving.SLOAttainment(latencies, targetMS)
}

// Summary renders the result as a stable, byte-comparable text block —
// the artifact the determinism tests diff between runs.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s router=%s admission=%s workload=%s instances=%d\n",
		r.Policy, r.Router, r.Admission, r.Workload, r.Instances)
	fmt.Fprintf(&b, "requests=%d rejected=%d failed=%d failovers=%d switches=%d/%d fairness=%.6f\n",
		r.Requests, r.Rejected, r.Failed, r.Failovers, r.FailedSwitches, r.SwitchAttempts, r.Fairness)
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "class=%s target=%.3f arrived=%d rejected=%d failed=%d served=%d "+
			"p50=%.6f p95=%.6f p99=%.6f max=%.6f attain=%.6f level=%.6f\n",
			c.Class, c.TargetMS, c.Arrived, c.Rejected, c.Failed, c.Served,
			c.P50, c.P95, c.P99, c.Max, c.Attainment, c.MeanLevel)
	}
	return b.String()
}

// AffinityRouter builds the model-affinity router for n instances using
// the hub cluster's consistent-hash ring: a request's series maps
// through the same series-aware placement key that co-locates model
// families on hub shards, so one family's requests keep hitting the
// instance that already has its model deployed. Seriesless requests
// fall back to least-loaded.
func AffinityRouter(instances int) (Router, error) {
	ring, err := hubcluster.NewRing(instances)
	if err != nil {
		return nil, fmt.Errorf("serving/cluster: affinity ring: %w", err)
	}
	return &affinityRouter{ring: ring}, nil
}

// affinityRouter routes by ring placement of the request's series.
type affinityRouter struct {
	ring *hubcluster.Ring
	ll   leastLoaded
}

func (r *affinityRouter) Name() string { return "affinity" }

func (r *affinityRouter) Route(req Request, views []InstanceView) int {
	if req.Series == "" {
		return r.ll.Route(req, views)
	}
	return r.ring.ShardFor(hubcluster.PlacementKey("", req.Series))
}
