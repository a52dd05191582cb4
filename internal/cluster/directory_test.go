package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sommelier"
	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/obs"
	"sommelier/internal/query"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// The directed-vs-oracle differential: a seeded churn of cluster writes,
// kill windows and out-of-band writes over real hub shards, with every
// query the coordinator answers checked against an oracle that asks
// every shard's preferred replica directly and merges with mergeTopK.
const (
	dirShards   = 3
	dirReplicas = 2
	dirEpochs   = 5
	dirOps      = 2000 // per epoch; each epoch starts from empty shards
)

// killable cuts a client's path to its hub while dead is set: the
// coordinator's side of a kill window. The hub itself keeps serving the
// oracle and the out-of-band writer.
type killable struct {
	base http.RoundTripper
	dead *atomic.Bool
}

func (k killable) RoundTrip(r *http.Request) (*http.Response, error) {
	if k.dead.Load() {
		return nil, errors.New("replica killed")
	}
	return k.base.RoundTrip(r)
}

// hubSlot serves through the handler it holds; swapping in a new hub
// is a hub restart behind the same URL.
type hubSlot struct {
	mu sync.RWMutex
	h  http.Handler
}

func (h *hubSlot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.RLock()
	cur := h.h
	h.mu.RUnlock()
	cur.ServeHTTP(w, r)
}

func (h *hubSlot) get() http.Handler {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.h
}

func (h *hubSlot) set(next http.Handler) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.h = next
}

// newEngineHub is a query-answering hub over a fresh, empty engine.
func newEngineHub(t *testing.T) *hub.Server {
	t.Helper()
	store := repo.NewInMemory()
	eng, err := sommelier.NewEngine(store, sommelier.WithSeed(5), sommelier.WithValidationSize(32))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hub.NewServer(store,
		hub.WithIndexer(eng),
		hub.WithQuerier(func(ctx context.Context, q string) (any, error) { return eng.QueryContext(ctx, q) }),
		hub.WithBatchQuerier(func(ctx context.Context, qs []string) ([]any, []*hub.QueryError) {
			rss, errs := eng.QueryBatchContext(ctx, qs)
			results := make([]any, len(qs))
			qerrs := make([]*hub.QueryError, len(qs))
			for i := range qs {
				if errs[i] != nil {
					qerrs[i] = hub.NewQueryError(errs[i])
					continue
				}
				results[i] = rss[i]
			}
			return results, qerrs
		}))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// dirFixture is one epoch's cluster: dirShards × dirReplicas engine
// hubs, the Cluster and Coordinator over their killable clients, and a
// direct client per replica for the oracle and the out-of-band writer.
type dirFixture struct {
	cl     *Cluster
	co     *Coordinator
	hubs   [][]*hubSlot
	reps   [][]*HTTPReplica
	dead   [][]*atomic.Bool
	direct [][]*hub.Client
	close  []func()
}

// newDirFixture builds the cluster; opts configure the clients the
// cluster and coordinator use.
func newDirFixture(t *testing.T, opts ...hub.Option) *dirFixture {
	t.Helper()
	f := &dirFixture{
		hubs:   make([][]*hubSlot, dirShards),
		reps:   make([][]*HTTPReplica, dirShards),
		dead:   make([][]*atomic.Bool, dirShards),
		direct: make([][]*hub.Client, dirShards),
	}
	topo := make([][]Replica, dirShards)
	for s := 0; s < dirShards; s++ {
		for r := 0; r < dirReplicas; r++ {
			slot := &hubSlot{h: newEngineHub(t)}
			ts := httptest.NewServer(slot)
			t.Cleanup(ts.Close) // on a failed check; shutdown closes it otherwise
			f.close = append(f.close, ts.Close)
			dead := new(atomic.Bool)
			client, err := hub.NewClient(ts.URL, &http.Client{Transport: killable{ts.Client().Transport, dead}},
				append([]hub.Option{hub.WithRetries(0), hub.WithBreaker(0, 0), hub.WithCacheCap(1)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := hub.NewClient(ts.URL, ts.Client(), hub.WithRetries(0), hub.WithCacheCap(1))
			if err != nil {
				t.Fatal(err)
			}
			rep := NewHTTPReplica(client)
			topo[s] = append(topo[s], rep)
			f.hubs[s] = append(f.hubs[s], slot)
			f.reps[s] = append(f.reps[s], rep)
			f.dead[s] = append(f.dead[s], dead)
			f.direct[s] = append(f.direct[s], direct)
		}
	}
	var err error
	if f.cl, err = NewCluster(topo); err != nil {
		t.Fatal(err)
	}
	if f.co, err = NewCoordinator(Backends(topo), WithReplicaTimeout(10*time.Second),
		WithCoordinatorObserver(obs.New())); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *dirFixture) shutdown() {
	for _, c := range f.close {
		c()
	}
}

// oracle answers q from every shard's preferred replica, asked
// directly, merged as the coordinator merges.
func (f *dirFixture) oracle(ctx context.Context, t *testing.T, q string) []Result {
	t.Helper()
	parsed, err := query.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([][]Result, dirShards)
	for s := range f.direct {
		res, err := f.direct[s][f.co.health.order(s)[0]].Query(ctx, q)
		if err != nil && !errors.Is(err, query.ErrUnknownReference) {
			t.Fatalf("oracle: shard %d: %v", s, err)
		}
		perShard[s] = res
	}
	return mergeTopK(parsed, perShard)
}

func sameResults(a, b []Result) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// TestDirectedQueriesMatchOracle is the differential: dirEpochs ×
// dirOps seeded operations — Publish, Broadcast, Repair, Delete, kill
// windows, an out-of-band writer that PUTs to every replica of one shard
// through its own clients, and single and batched queries. Every query
// whose Response is complete must equal the oracle, except that after an
// out-of-band write to a shard the check waits until that shard has
// answered the coordinator (a query without a reference is asked of
// every shard).
func TestDirectedQueriesMatchOracle(t *testing.T) {
	ctx := context.Background()
	var compared, skipped, directed, relearns int64
	for epoch := 0; epoch < dirEpochs; epoch++ {
		rng := rand.New(rand.NewSource(int64(31 + epoch)))
		f := newDirFixture(t)
		base, err := zoo.DenseResidualNet(zoo.Config{Name: "dir-base", Seed: uint64(epoch + 1), Width: 8, Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		refs := []string{"ghost@1"}
		if id, err := f.cl.Broadcast(ctx, base); err == nil {
			refs = append(refs, id)
		}
		fresh := 0
		model := func() *graph.Model {
			fresh++
			return zoo.Perturb(base, fmt.Sprintf("dir-e%d-m%03d", epoch, fresh), 0.01*float64(fresh%20+1), uint64(1000*epoch+fresh))
		}
		deadUntil := make([][]int, dirShards)
		for s := range deadUntil {
			deadUntil[s] = make([]int, dirReplicas)
		}
		unsettled := make([]bool, dirShards)
		pick := func() string {
			switch n := rng.Intn(20); {
			case n < 2:
				return "SELECT TASK classification WITHIN 50% PICK most_similar"
			case n < 11:
				return fmt.Sprintf("SELECT CORR %q WITHIN 50%% PICK most_similar", refs[rng.Intn(len(refs))])
			case n < 16:
				return fmt.Sprintf("SELECT CORR %q WITHIN 80%% PICK smallest LIMIT 3", refs[rng.Intn(len(refs))])
			default:
				return fmt.Sprintf("SELECT CORR %q WITHIN 30%% PICK fastest", refs[rng.Intn(len(refs))])
			}
		}
		check := func(q string, resp *Response) {
			t.Helper()
			parsed, err := query.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			if parsed.Ref == "" {
				for s := range unsettled {
					if !slices.Contains(resp.Missing, s) && !slices.Contains(resp.Stale, s) {
						unsettled[s] = false
					}
				}
			}
			if !resp.Complete() || slices.Contains(unsettled, true) {
				skipped++
				return
			}
			compared++
			if want := f.oracle(ctx, t, q); !sameResults(resp.Results, want) {
				t.Fatalf("epoch %d: %s\n coordinator %+v\n oracle      %+v", epoch, q, resp.Results, want)
			}
		}
		for op := 0; op < dirOps; op++ {
			for s := range deadUntil {
				for r, until := range deadUntil[s] {
					f.dead[s][r].Store(op < until)
				}
			}
			switch n := rng.Intn(200); {
			case n < 170:
				q := pick()
				resp, err := f.co.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				check(q, resp)
			case n < 180:
				qs := make([]string, 2+rng.Intn(5))
				for i := range qs {
					qs[i] = pick()
				}
				resps, errs := f.co.QueryBatch(ctx, qs)
				for i, q := range qs {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					check(q, resps[i])
				}
			case n < 186:
				if id, err := f.cl.Publish(ctx, model()); id != "" {
					refs = append(refs, id)
				} else if err == nil {
					t.Fatal("publish returned no ID and no error")
				}
			case n < 187:
				if id, _ := f.cl.Broadcast(ctx, model()); id != "" {
					refs = append(refs, id)
				}
			case n < 191:
				// Out of band: a new model, or one the cluster placed
				// elsewhere, onto every replica of one shard.
				m := model()
				if rng.Intn(2) == 0 && len(refs) > 2 {
					m, err = f.cl.Load(ctx, refs[1+rng.Intn(len(refs)-1)])
					if err != nil {
						continue // its holders are dead to the cluster
					}
				}
				enc, err := cas.Encode(m, "", nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				s := rng.Intn(dirShards)
				for _, c := range f.direct[s] {
					if _, _, err := c.PublishEncoded(enc); err != nil {
						t.Fatalf("out-of-band write to shard %d: %v", s, err)
					}
				}
				refs = append(refs, enc.Manifest.ID())
				unsettled[s] = true
			case n < 193:
				_ = f.cl.Delete(ctx, refs[rng.Intn(len(refs))])
			case n < 195:
				_, _ = f.cl.Repair(ctx)
			default:
				s, r := rng.Intn(dirShards), rng.Intn(dirReplicas)
				deadUntil[s][r] = op + 1 + rng.Intn(40)
			}
		}
		directed += f.co.obs.Snapshot().Counters["cluster_directed_queries_total"]
		relearns += f.co.obs.Snapshot().Counters["cluster_directory_relearns_total"]
		f.shutdown()
	}
	t.Logf("%d operations: %d responses compared, %d skipped (degraded or awaiting an out-of-band write); %d directed, %d relearns",
		dirEpochs*dirOps, compared, skipped, directed, relearns)
	if compared < dirEpochs*dirOps/2 || directed == 0 || relearns == 0 {
		t.Errorf("the churn did not exercise the directory: %d compared, %d directed, %d relearns", compared, directed, relearns)
	}
}

// directedSetup publishes, through the coordinator's own replicas, a
// reference to shard 0, a variant of it to shard 1 and a filler model
// to every shard (so every replica has reported its generation), then
// runs the query on the reference until the coordinator sends it to
// shard 0 alone. It returns the reference model, the query and the
// variant's ID.
func directedSetup(t *testing.T, f *dirFixture, name string) (*graph.Model, string, string) {
	t.Helper()
	ctx := context.Background()
	base, err := zoo.DenseResidualNet(zoo.Config{Name: name, Seed: 3, Width: 8, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.cl.Broadcast(ctx, zoo.Perturb(base, name+"-filler", 0.5, 7)); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for s, m := range []*graph.Model{base, zoo.Perturb(base, name+"-variant", 0.01, 9)} {
		enc, err := cas.Encode(m, "", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.cl.publishTo(ctx, s, f.cl.shards[s], enc); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, enc.Manifest.ID())
	}
	q := fmt.Sprintf("SELECT CORR %q WITHIN 50%% PICK most_similar", ids[0])
	coQuery(t, f, q)
	coQuery(t, f, q)
	if n := f.co.obs.Snapshot().Counters["cluster_directed_queries_total"]; n != 1 {
		t.Fatalf("directed queries = %d, want 1", n)
	}
	return base, q, ids[1]
}

// outOfBand publishes m to every replica of shard s through the direct
// clients, returning its ID.
func outOfBand(t *testing.T, f *dirFixture, s int, m *graph.Model) string {
	t.Helper()
	enc, err := cas.Encode(m, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f.direct[s] {
		if _, _, err := c.PublishEncoded(enc); err != nil {
			t.Fatal(err)
		}
	}
	return enc.Manifest.ID()
}

// coQuery runs q through the coordinator; the response must be complete.
func coQuery(t *testing.T, f *dirFixture, q string) *Response {
	t.Helper()
	resp, err := f.co.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Complete() {
		t.Fatalf("%s: response not complete: %+v", q, resp)
	}
	return resp
}

// matchesOracle requires q's coordinator answer to equal the oracle's,
// and the oracle's to name id.
func matchesOracle(t *testing.T, f *dirFixture, q, id string) {
	t.Helper()
	want := f.oracle(context.Background(), t, q)
	if !slices.ContainsFunc(want, func(r Result) bool { return r.ID == id }) {
		t.Fatalf("oracle %+v does not name %s", want, id)
	}
	if got := coQuery(t, f, q).Results; !sameResults(got, want) {
		t.Fatalf("%s\n coordinator %+v\n oracle      %+v", q, got, want)
	}
}

// TestDirectoryAfterShardHubRestart: a shard hub restarts behind the
// same URL and counts its generation from 0 again, below what the
// coordinator's clients saw before. Once the restarted shard has
// answered the coordinator, a write made to it out of band after the
// restart is in the next answer on the reference it now holds.
func TestDirectoryAfterShardHubRestart(t *testing.T) {
	f := newDirFixture(t)
	defer f.shutdown()
	base, q, _ := directedSetup(t, f, "restart")
	for i := 0; i < 3; i++ { // more writes than shard 1 gets after the restart
		outOfBand(t, f, 1, zoo.Perturb(base, fmt.Sprintf("restart-filler%d", i), 0.5, uint64(20+i)))
	}
	coQuery(t, f, "SELECT TASK classification WITHIN 50% PICK most_similar") // shard 1 shows them
	coQuery(t, f, q)
	coQuery(t, f, q)
	if n := f.co.obs.Snapshot().Counters["cluster_directed_queries_total"]; n != 2 {
		t.Fatalf("directed queries = %d, want 2", n)
	}
	for _, h := range f.hubs[1] {
		h.set(newEngineHub(t)) // empty, generation 0
	}
	outOfBand(t, f, 1, base)
	variant := outOfBand(t, f, 1, zoo.Perturb(base, "restart-after", 0.01, 11))
	coQuery(t, f, "SELECT TASK classification WITHIN 50% PICK most_similar") // shard 1 answers
	matchesOracle(t, f, q, variant)
}

// lateWrites holds every model PUT until release is closed — after the
// client gave up on it — then commits it and reports on committed.
type lateWrites struct {
	next      http.Handler
	release   chan struct{}
	committed chan struct{}
}

func (l lateWrites) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut || !strings.HasPrefix(r.URL.Path, "/v1/models/") {
		l.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	<-l.release
	r = r.Clone(context.WithoutCancel(r.Context()))
	r.Body = io.NopCloser(bytes.NewReader(body))
	l.next.ServeHTTP(w, r)
	l.committed <- struct{}{}
}

// TestDirectoryAfterLostWriteAck: a write through the coordinator's own
// replica times out on the client and commits on the hub afterwards,
// making the shard a holder. With only directed queries after it, the
// next answer must still include that shard.
func TestDirectoryAfterLostWriteAck(t *testing.T) {
	f := newDirFixture(t, hub.WithTimeout(200*time.Millisecond))
	defer f.shutdown()
	base, q, variant := directedSetup(t, f, "lost")
	r := f.co.health.order(1)[0]
	enc, err := cas.Encode(base, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for h, data := range enc.Chunks { // the manifest PUT alone is the write
		if err := f.direct[1][r].PutChunk(h, data); err != nil {
			t.Fatal(err)
		}
	}
	late := lateWrites{f.hubs[1][r].get(), make(chan struct{}), make(chan struct{}, 1)}
	f.hubs[1][r].set(late)
	if _, err := f.reps[1][r].PublishEncoded(context.Background(), enc); err == nil {
		t.Fatal("the held write was acknowledged")
	}
	close(late.release)
	<-late.committed
	matchesOracle(t, f, q, variant)
}

// stubReplica is a replica whose catalog is a map from reference to the
// answer it gives for it; a query on any other reference is refused as
// unknown. Its generation moves only through write.
type stubReplica struct {
	mu    sync.Mutex
	holds map[string][]Result
	gen   uint64
	down  bool
	asked int
	// after, when set, runs once right after the replica answers: a
	// write that lands while the scatter is still in flight.
	after func()
}

func newStub(holds map[string][]Result) *stubReplica { return &stubReplica{holds: holds} }

func (r *stubReplica) QueryBatch(ctx context.Context, qs []string) ([][]Result, []error, error) {
	r.mu.Lock()
	r.asked += len(qs)
	if r.down {
		r.mu.Unlock()
		return nil, nil, errors.New("stub replica down")
	}
	results := make([][]Result, len(qs))
	errs := make([]error, len(qs))
	for i, q := range qs {
		parsed, err := query.Parse(q)
		if err != nil {
			errs[i] = err
			continue
		}
		res, ok := r.holds[parsed.Ref]
		if !ok {
			errs[i] = fmt.Errorf("%w: %q", query.ErrUnknownReference, parsed.Ref)
			continue
		}
		results[i] = res
	}
	after := r.after
	r.after = nil
	r.mu.Unlock()
	if after != nil {
		after()
	}
	return results, errs, nil
}

func (r *stubReplica) Generation() (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen, true
}

// write publishes ref's answer and moves the generation, as an
// acknowledged write does.
func (r *stubReplica) write(ref string, res []Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.holds[ref] = res
	r.gen++
}

func (r *stubReplica) set(f func(r *stubReplica)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(r)
}

// blindReplica hides its stub's generation: a replica that cannot say
// when its catalog changed.
type blindReplica struct{ s *stubReplica }

func (b blindReplica) QueryBatch(ctx context.Context, qs []string) ([][]Result, []error, error) {
	return b.s.QueryBatch(ctx, qs)
}
func (b blindReplica) Generation() (uint64, bool) { return 0, false }

const stubQ = `SELECT CORR "x@1" WITHIN 50% PICK most_similar`

var stubA, stubB = []Result{{ID: "a@1", Level: 0.9}}, []Result{{ID: "b@1", Level: 0.8}}

func stubCoordinator(t *testing.T, shards [][]QueryBackend) (*Coordinator, *obs.Observer) {
	t.Helper()
	o := obs.New()
	co, err := NewCoordinator(shards, WithCoordinatorObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	return co, o
}

// ask runs stubQ and returns the IDs it answered.
func ask(t *testing.T, co *Coordinator) []string {
	t.Helper()
	resp, err := co.Query(context.Background(), stubQ)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Complete() {
		t.Fatalf("response not complete: %+v", resp)
	}
	var ids []string
	for _, r := range resp.Results {
		ids = append(ids, r.ID)
	}
	return ids
}

// TestDirectoryReadsGenerationsBeforeSending: a write that lands on a
// non-holder while the learning query is in flight — after the shard
// answered "unknown" — must invalidate what that query learned.
func TestDirectoryReadsGenerationsBeforeSending(t *testing.T) {
	holder, other := newStub(map[string][]Result{"x@1": stubA}), newStub(map[string][]Result{})
	other.after = func() { other.write("x@1", stubB) }
	co, o := stubCoordinator(t, [][]QueryBackend{{holder}, {other}})
	if got := fmt.Sprint(ask(t, co)); got != "[a@1]" {
		t.Fatalf("learning query answered %s", got)
	}
	if got := fmt.Sprint(ask(t, co)); got != "[a@1 b@1]" {
		t.Fatalf("after a write raced the learning query: %s, want [a@1 b@1]", got)
	}
	if n := o.Snapshot().Counters["cluster_directory_relearns_total"]; n != 1 {
		t.Fatalf("relearns = %d, want 1", n)
	}
	if got := fmt.Sprint(ask(t, co)); got != "[a@1 b@1]" || other.asked != 3 {
		t.Fatalf("both shards hold x@1: %s, other asked %d times, want 3", got, other.asked)
	}
}

// TestDirectoryReasksWhenHolderRefuses: a holder that answers "unknown"
// sends its query to every shard again in the same call, even though no
// generation the coordinator can see has moved.
func TestDirectoryReasksWhenHolderRefuses(t *testing.T) {
	holder, other := newStub(map[string][]Result{"x@1": stubA}), newStub(map[string][]Result{})
	co, o := stubCoordinator(t, [][]QueryBackend{{holder}, {other}})
	ask(t, co)
	if got := fmt.Sprint(ask(t, co)); got != "[a@1]" || other.asked != 1 {
		t.Fatalf("directed query: %s, non-holder asked %d times, want [a@1] and 1", got, other.asked)
	}
	// The reference moves between shards where no generation shows it.
	holder.set(func(r *stubReplica) { delete(r.holds, "x@1") })
	other.set(func(r *stubReplica) { r.holds["x@1"] = stubB })
	if got := fmt.Sprint(ask(t, co)); got != "[b@1]" {
		t.Fatalf("after the holder refused: %s, want [b@1]", got)
	}
	c := o.Snapshot().Counters
	if c["cluster_directed_queries_total"] != 2 || c["cluster_directory_relearns_total"] != 1 {
		t.Fatalf("directed %d, relearns %d; want 2 and 1", c["cluster_directed_queries_total"], c["cluster_directory_relearns_total"])
	}
}

// TestDirectoryFollowsPreferredReplica: a non-holder is skipped only
// while the replica that said so is still its shard's first choice. Here
// the shard's replicas diverge: r0 holds the reference, r1 does not.
func TestDirectoryFollowsPreferredReplica(t *testing.T) {
	holder := newStub(map[string][]Result{"x@1": stubA})
	r0, r1 := newStub(map[string][]Result{"x@1": stubB}), newStub(map[string][]Result{})
	co, _ := stubCoordinator(t, [][]QueryBackend{{holder}, {r0, r1}})
	r0.set(func(r *stubReplica) { r.down = true })
	if got := fmt.Sprint(ask(t, co)); got != "[a@1]" {
		t.Fatalf("with r0 down: %s, want [a@1]", got)
	}
	// r0 returns and r1 fails another query: r0 is first again.
	r0.set(func(r *stubReplica) { r.down = false })
	r1.set(func(r *stubReplica) { r.down = true })
	if _, err := co.Query(context.Background(), `SELECT TASK classification WITHIN 50%`); err != nil {
		t.Fatal(err)
	}
	if first := co.health.order(1)[0]; first != 0 {
		t.Fatalf("shard 1 prefers replica %d, want 0", first)
	}
	if got := fmt.Sprint(ask(t, co)); got != "[a@1 b@1]" {
		t.Fatalf("with r0 preferred: %s, want [a@1 b@1]", got)
	}
}

// TestDirectoryAsksBlindShards: a shard with a replica that cannot
// report a generation is asked every query; the others are still
// skipped.
func TestDirectoryAsksBlindShards(t *testing.T) {
	holder, blind, other := newStub(map[string][]Result{"x@1": stubA}), newStub(map[string][]Result{}), newStub(map[string][]Result{})
	co, o := stubCoordinator(t, [][]QueryBackend{{holder}, {blindReplica{blind}}, {other}})
	for i := 0; i < 3; i++ {
		if got := fmt.Sprint(ask(t, co)); got != "[a@1]" {
			t.Fatalf("query %d: %s", i, got)
		}
	}
	if blind.asked != 3 || other.asked != 1 {
		t.Fatalf("blind shard asked %d times, other %d; want 3 and 1", blind.asked, other.asked)
	}
	if n := o.Snapshot().Counters["cluster_directed_queries_total"]; n != 2 {
		t.Fatalf("directed = %d, want 2", n)
	}
}
