// Chaos tests for the shard cluster: every test drives the real
// engine-backed replicas through a seeded faults.Schedule, so each
// degradation rung — replica failover, stale last-known-good, partial
// result — is exercised deterministically and asserted byte-for-byte
// across independent runs of the same schedule.
//
// Every seeded schedule is run twice more than determinism needs: once
// through Coordinator.Query and once, on an identically seeded cluster,
// through QueryBatch of that one query. The two entry points share one
// ladder, so Response and ladder counters must be reflect.DeepEqual
// (sameAsBatchOfOne). Only the concurrent stress test is exempt — its
// fault draws interleave differently on every run by design.
//
// The suite doubles as the `make chaos` matrix: every test here matches
// -run TestChaos.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sommelier"
	"sommelier/internal/cluster"
	"sommelier/internal/faults"
	"sommelier/internal/obs"
	"sommelier/internal/zoo"
)

// The small-but-honest cluster every chaos test uses: 3 shards × 2
// replicas, a broadcast reference, 8 sharded variants.
const (
	chaosShards     = 3
	chaosReplicas   = 2
	chaosValidation = 32
	chaosVariants   = 8
	chaosWidth      = 8
	chaosDepth      = 1
	chaosSeed       = 7
)

// chaosCluster builds a faulted cluster: every replica an engine
// replica behind a cluster.FaultyReplica. The schedule is empty at
// build time — seeding publishes run fault-free — and is programmed by
// the test afterwards (Set resets each target's op counter, so windows
// are phrased in post-seeding operations). The seed family is one base
// broadcast to every shard, the reference every shard can correlate
// against, and chaosVariants variants placed by the ring, perturbed more
// with each index so the merged top-K order is non-trivial.
func chaosCluster(t *testing.T, copts ...cluster.CoordinatorOption) (*cluster.Cluster, *cluster.Coordinator, *faults.Schedule, *obs.Observer, string) {
	t.Helper()
	o := obs.New()
	sched := faults.NewSchedule(chaosSeed)
	shards := make([][]cluster.Replica, chaosShards)
	for s := range shards {
		for r := 0; r < chaosReplicas; r++ {
			rep, err := sommelier.NewEngineReplica(chaosSeed, chaosValidation, nil)
			if err != nil {
				t.Fatal(err)
			}
			shards[s] = append(shards[s], cluster.NewFaultyReplica(rep, cluster.Target(s, r), sched))
		}
	}
	cl, err := cluster.NewCluster(shards, cluster.WithClusterObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.NewCoordinator(cl.Backends(), append([]cluster.CoordinatorOption{cluster.WithCoordinatorObserver(o)}, copts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "cluster-base", Seed: chaosSeed, Width: chaosWidth, Depth: chaosDepth})
	if err != nil {
		t.Fatal(err)
	}
	refID, err := cl.Broadcast(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < chaosVariants; i++ {
		v := zoo.Perturb(base, fmt.Sprintf("cluster-v%02d", i), 0.005*float64(i+1), chaosSeed+uint64(i)+1)
		if _, err := cl.Publish(ctx, v); err != nil {
			t.Fatalf("publishing variant %d: %v", i, err)
		}
	}
	return cl, co, sched, o, refID
}

func chaosQuery(refID string) string {
	return fmt.Sprintf("SELECT CORR %q WITHIN 50%% PICK most_similar", refID)
}

// askFunc puts one query to the coordinator through one of its two
// entry points.
type askFunc func(co *cluster.Coordinator, q string) (*cluster.Response, error)

func askQuery(co *cluster.Coordinator, q string) (*cluster.Response, error) {
	return co.Query(context.Background(), q)
}

func askBatchOfOne(co *cluster.Coordinator, q string) (*cluster.Response, error) {
	resps, errs := co.QueryBatch(context.Background(), []string{q})
	return resps[0], errs[0]
}

// ladderCounters extracts the counters the degradation ladder moves.
func ladderCounters(o *obs.Observer) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range o.Snapshot().Counters {
		if strings.HasPrefix(name, "cluster_failover") ||
			name == "cluster_stale_shards_total" || name == "cluster_missing_shards_total" {
			out[name] = v
		}
	}
	return out
}

// sameAsBatchOfOne asserts the single ≡ batch-of-one contract for one
// schedule: the responses a Query run collected and the ladder counters
// it moved equal those of the QueryBatch([]string{q}) run.
func sameAsBatchOfOne(t *testing.T, so *obs.Observer, single []*cluster.Response, bo *obs.Observer, batch []*cluster.Response) {
	t.Helper()
	if len(single) != len(batch) {
		t.Fatalf("Query run collected %d responses, batch-of-one run %d", len(single), len(batch))
	}
	for i := range single {
		// Class() is a function of the compared fields, so equal
		// responses are equally classed; it is printed for the reader.
		if !reflect.DeepEqual(single[i], batch[i]) {
			t.Errorf("response %d: Query and QueryBatch-of-one diverge:\n single %s (%s)\n batch  %s (%s)",
				i, mustJSON(t, single[i]), single[i].Class(), mustJSON(t, batch[i]), batch[i].Class())
		}
	}
	if s, b := ladderCounters(so), ladderCounters(bo); !reflect.DeepEqual(s, b) {
		t.Errorf("ladder counters diverge:\n single %v\n batch  %v", s, b)
	}
}

// mustJSON marshals for byte-for-byte comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// baselineResults runs the no-fault cluster once and returns the full
// top-K, serialized.
func baselineResults(t *testing.T) []byte {
	t.Helper()
	_, co, _, _, refID := chaosCluster(t)
	resp, err := co.Query(context.Background(), chaosQuery(refID))
	if err != nil {
		t.Fatalf("baseline query: %v", err)
	}
	if resp.Class() != cluster.OutcomeFull {
		t.Fatalf("baseline response is %s (missing %v, stale %v); want full", resp.Class(), resp.Missing, resp.Stale)
	}
	if len(resp.Results) < 2 {
		t.Fatalf("baseline returned %d results; seeding produced too few correlated models", len(resp.Results))
	}
	return mustJSON(t, resp.Results)
}

// TestChaosFailoverInvisible is the headline acceptance check: killing
// 1 of the 2 replicas of ANY single shard mid-query must yield a
// byte-identical, fully-merged top-K to the no-fault run — failover is
// invisible. The full Response of the same schedule is also asserted
// byte-for-byte across two independent runs.
func TestChaosFailoverInvisible(t *testing.T) {
	baseline := baselineResults(t)

	for shard := 0; shard < chaosShards; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("kill-shard%d-replica0", shard), func(t *testing.T) {
			run := func(ask askFunc) ([]byte, *cluster.Response, *obs.Observer) {
				_, co, sched, o, refID := chaosCluster(t)
				sched.Set(cluster.Target(shard, 0), faults.Kill(0, 0))
				resp, err := ask(co, chaosQuery(refID))
				if err != nil {
					t.Fatalf("query with dead replica: %v", err)
				}
				return mustJSON(t, resp), resp, o
			}
			full1, resp, o := run(askQuery)
			if resp.Class() != cluster.OutcomeFull {
				t.Fatalf("response class = %s (missing %v, stale %v); a 1-of-2 replica loss must stay invisible",
					resp.Class(), resp.Missing, resp.Stale)
			}
			if resp.Failovers == 0 {
				t.Fatal("response reports zero failovers; the kill window never fired")
			}
			if got := mustJSON(t, resp.Results); !bytes.Equal(got, baseline) {
				t.Errorf("failover changed the top-K:\n got %s\nwant %s", got, baseline)
			}
			snap := o.Snapshot()
			if snap.Counters["cluster_failovers_total"] == 0 {
				t.Error("cluster_failovers_total = 0, want > 0")
			}
			if snap.Counters["cluster_degraded_queries"] != 0 {
				t.Error("cluster_degraded_queries incremented for an invisible failover")
			}

			full2, _, _ := run(askQuery)
			if !bytes.Equal(full1, full2) {
				t.Errorf("same schedule, different Response bytes:\n run1 %s\n run2 %s", full1, full2)
			}
			_, bresp, bo := run(askBatchOfOne)
			sameAsBatchOfOne(t, o, []*cluster.Response{resp}, bo, []*cluster.Response{bresp})
		})
	}
}

// TestChaosShardLossDegrades is the second acceptance check: killing
// ALL replicas of a shard (with no last-known-good cached) must yield a
// degraded partial result that names the missing shard and increments
// cluster_degraded_queries — byte-for-byte reproducible across runs.
func TestChaosShardLossDegrades(t *testing.T) {
	baseline := baselineResults(t)

	for shard := 0; shard < chaosShards; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("kill-shard%d-all-replicas", shard), func(t *testing.T) {
			run := func(ask askFunc) ([]byte, *cluster.Response, *obs.Observer) {
				_, co, sched, o, refID := chaosCluster(t)
				for r := 0; r < chaosReplicas; r++ {
					sched.Set(cluster.Target(shard, r), faults.Kill(0, 0))
				}
				resp, err := ask(co, chaosQuery(refID))
				if err != nil {
					t.Fatalf("query with dead shard: %v", err)
				}
				return mustJSON(t, resp), resp, o
			}
			full1, resp, o := run(askQuery)
			if resp.Class() != cluster.OutcomeDegraded {
				t.Fatalf("response class = %s, want degraded", resp.Class())
			}
			if len(resp.Missing) != 1 || resp.Missing[0] != shard {
				t.Fatalf("Missing = %v, want [%d] — the partial result must name the dead shard", resp.Missing, shard)
			}
			snap := o.Snapshot()
			if got := snap.Counters["cluster_degraded_queries"]; got != 1 {
				t.Errorf("cluster_degraded_queries = %d, want 1", got)
			}
			if snap.Counters["cluster_missing_shards_total"] != 1 {
				t.Errorf("cluster_missing_shards_total = %d, want 1", snap.Counters["cluster_missing_shards_total"])
			}

			// The partial top-K must be a subset of the baseline: losing a
			// shard may only remove results, never invent or reorder them.
			var base, part []cluster.Result
			if err := json.Unmarshal(baseline, &base); err != nil {
				t.Fatal(err)
			}
			part = resp.Results
			if len(part) >= len(base) {
				// Equality is possible only if the dead shard held no
				// variant; with 8 variants on 3 shards every shard holds
				// at least one unless the ring says otherwise — verify
				// subset relation regardless.
				t.Logf("note: shard %d contributed nothing exclusive (%d vs %d results)", shard, len(part), len(base))
			}
			i := 0
			for _, b := range base {
				if i < len(part) && part[i].ID == b.ID {
					i++
				}
			}
			if i != len(part) {
				t.Errorf("degraded top-K is not an ordered subset of baseline:\n got %s\nwant subset of %s",
					mustJSON(t, part), baseline)
			}

			full2, _, _ := run(askQuery)
			if !bytes.Equal(full1, full2) {
				t.Errorf("same schedule, different Response bytes:\n run1 %s\n run2 %s", full1, full2)
			}
			_, bresp, bo := run(askBatchOfOne)
			sameAsBatchOfOne(t, o, []*cluster.Response{resp}, bo, []*cluster.Response{bresp})
		})
	}
}

// TestChaosStaleLastKnownGood exercises the third rung: a shard that
// dies AFTER answering once keeps serving its last-known-good answer —
// the full top-K survives, tagged stale.
func TestChaosStaleLastKnownGood(t *testing.T) {
	baseline := baselineResults(t)
	const shard = 1

	run := func(ask askFunc) ([]byte, *cluster.Response, *obs.Observer) {
		_, co, sched, o, refID := chaosCluster(t)
		q := chaosQuery(refID)
		if _, err := ask(co, q); err != nil {
			t.Fatalf("warm-up query: %v", err)
		}
		for r := 0; r < chaosReplicas; r++ {
			sched.Set(cluster.Target(shard, r), faults.Kill(0, 0))
		}
		resp, err := ask(co, q)
		if err != nil {
			t.Fatalf("query with dead shard: %v", err)
		}
		return mustJSON(t, resp), resp, o
	}
	full1, resp, o := run(askQuery)
	if resp.Class() != cluster.OutcomeDegraded {
		t.Fatalf("response class = %s, want degraded (stale rung)", resp.Class())
	}
	if len(resp.Stale) != 1 || resp.Stale[0] != shard || len(resp.Missing) != 0 {
		t.Fatalf("Stale = %v, Missing = %v; want stale [%d], nothing missing", resp.Stale, resp.Missing, shard)
	}
	if got := mustJSON(t, resp.Results); !bytes.Equal(got, baseline) {
		t.Errorf("stale-served top-K differs from baseline:\n got %s\nwant %s", got, baseline)
	}
	snap := o.Snapshot()
	if snap.Counters["cluster_stale_shards_total"] != 1 {
		t.Errorf("cluster_stale_shards_total = %d, want 1", snap.Counters["cluster_stale_shards_total"])
	}
	if snap.Counters["cluster_degraded_queries"] != 1 {
		t.Errorf("cluster_degraded_queries = %d, want 1", snap.Counters["cluster_degraded_queries"])
	}

	full2, _, _ := run(askQuery)
	if !bytes.Equal(full1, full2) {
		t.Errorf("same schedule, different Response bytes:\n run1 %s\n run2 %s", full1, full2)
	}
	_, bresp, bo := run(askBatchOfOne)
	sameAsBatchOfOne(t, o, []*cluster.Response{resp}, bo, []*cluster.Response{bresp})
}

// TestChaosMatrix runs the fault-schedule matrix — kill/slow/flake a
// replica mid-query and mid-upload — each seeded and replayed twice
// for determinism.
func TestChaosMatrix(t *testing.T) {
	baseline := baselineResults(t)

	t.Run("flake-mid-query", func(t *testing.T) {
		// A replica flaking at 50% must never change an answer: every
		// query either hits it healthy or fails over.
		run := func(ask askFunc) ([]byte, []*cluster.Response, *obs.Observer) {
			_, co, sched, o, refID := chaosCluster(t)
			sched.Set(cluster.Target(0, 0), faults.Flake(0, 0, 0.5))
			var trace bytes.Buffer
			var resps []*cluster.Response
			for i := 0; i < 10; i++ {
				resp, err := ask(co, chaosQuery(refID))
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if resp.Class() != cluster.OutcomeFull {
					t.Fatalf("query %d degraded to %s under a 1-replica flake", i, resp.Class())
				}
				if got := mustJSON(t, resp.Results); !bytes.Equal(got, baseline) {
					t.Fatalf("query %d top-K changed under flake:\n got %s\nwant %s", i, got, baseline)
				}
				trace.Write(mustJSON(t, resp))
				trace.WriteByte('\n')
				resps = append(resps, resp)
			}
			if o.Snapshot().Counters["cluster_failover_error_total"] == 0 {
				t.Fatal("flake window never fired; the matrix entry tested nothing")
			}
			return trace.Bytes(), resps, o
		}
		t1, resps, o := run(askQuery)
		t2, _, _ := run(askQuery)
		if !bytes.Equal(t1, t2) {
			t.Errorf("flake trace not reproducible:\n run1 %s\n run2 %s", t1, t2)
		}
		_, bresps, bo := run(askBatchOfOne)
		sameAsBatchOfOne(t, o, resps, bo, bresps)
	})

	t.Run("slow-replica-times-out", func(t *testing.T) {
		// A replica slower than the per-replica timeout is a failover,
		// classified as such in the counters.
		run := func(ask askFunc) ([]byte, *cluster.Response, *obs.Observer) {
			_, co, sched, o, refID := chaosCluster(t, cluster.WithReplicaTimeout(40*time.Millisecond))
			sched.Set(cluster.Target(1, 0), faults.Slow(0, 0, 2*time.Second))
			resp, err := ask(co, chaosQuery(refID))
			if err != nil {
				t.Fatalf("query with slow replica: %v", err)
			}
			if resp.Class() != cluster.OutcomeFull {
				t.Fatalf("slow replica degraded the query to %s; want failover to the fast one", resp.Class())
			}
			if got := mustJSON(t, resp.Results); !bytes.Equal(got, baseline) {
				t.Fatalf("slow-replica failover changed the top-K:\n got %s\nwant %s", got, baseline)
			}
			if o.Snapshot().Counters["cluster_failover_timeout_total"] == 0 {
				t.Fatal("cluster_failover_timeout_total = 0; the timeout was not classified as such")
			}
			return mustJSON(t, resp), resp, o
		}
		r1, resp, o := run(askQuery)
		r2, _, _ := run(askQuery)
		if !bytes.Equal(r1, r2) {
			t.Errorf("slow-replica run not reproducible:\n run1 %s\n run2 %s", r1, r2)
		}
		_, bresp, bo := run(askBatchOfOne)
		sameAsBatchOfOne(t, o, []*cluster.Response{resp}, bo, []*cluster.Response{bresp})
	})

	t.Run("kill-mid-upload", func(t *testing.T) {
		// A replica dying mid-publish yields a PartialWriteError — the
		// write is durable on the surviving replica — and Repair restores
		// full replication.
		run := func(ask askFunc) (string, *cluster.Response, *obs.Observer) {
			cl, co, sched, o, refID := chaosCluster(t)
			m, err := cl.Load(context.Background(), refID)
			if err != nil {
				t.Fatalf("loading base: %v", err)
			}
			v := m.Clone()
			v.Name, v.Version = "mid-upload", "1.0.0"
			owner := cl.ShardFor("mid-upload@1.0.0", "")
			sched.Set(cluster.Target(owner, 0), faults.Kill(0, 0))

			id, err := cl.Publish(context.Background(), v)
			var pw *cluster.PartialWriteError
			if !errors.As(err, &pw) {
				t.Fatalf("publish into dead replica: err = %v, want *PartialWriteError", err)
			}
			if pw.Accepted != 1 || id != "mid-upload@1.0.0" {
				t.Fatalf("partial write: accepted %d, id %q", pw.Accepted, id)
			}
			// Durable despite the fault:
			if _, err := cl.Load(context.Background(), id); err != nil {
				t.Fatalf("model lost after partial write: %v", err)
			}

			sched.Set(cluster.Target(owner, 0)) // replica resurrects
			rep, err := cl.Repair(context.Background())
			if err != nil {
				t.Fatalf("repair: %v", err)
			}
			if rep.Copies == 0 {
				t.Fatal("repair copied nothing; the divergence was not healed")
			}
			// With replicas converged again, killing the previously
			// surviving replica must be invisible.
			sched.Set(cluster.Target(owner, 1), faults.Kill(0, 0))
			resp, err := ask(co, chaosQuery(refID))
			if err != nil {
				t.Fatalf("post-repair query: %v", err)
			}
			if resp.Class() != cluster.OutcomeFull {
				t.Fatalf("post-repair failover degraded to %s; repair left replicas divergent", resp.Class())
			}
			return fmt.Sprintf("owner=%d copies=%d resp=%s", owner, rep.Copies, mustJSON(t, resp)), resp, o
		}
		r1, resp, o := run(askQuery)
		r2, _, _ := run(askQuery)
		if r1 != r2 {
			t.Errorf("mid-upload run not reproducible:\n run1 %s\n run2 %s", r1, r2)
		}
		_, bresp, bo := run(askBatchOfOne)
		sameAsBatchOfOne(t, o, []*cluster.Response{resp}, bo, []*cluster.Response{bresp})
	})
}

// TestChaosConcurrentQueryStress hammers the coordinator from many
// goroutines while one replica of every shard flakes — the -race
// workout for the scatter-gather path. Every response must be a full,
// baseline-identical top-K: with one healthy replica per shard the
// ladder never needs to go below the failover rung.
func TestChaosConcurrentQueryStress(t *testing.T) {
	baseline := baselineResults(t)
	_, co, sched, o, refID := chaosCluster(t)
	for s := 0; s < chaosShards; s++ {
		sched.Set(cluster.Target(s, 0), faults.Flake(0, 0, 0.3))
	}

	const (
		goroutines = 8
		perG       = 10
	)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, err := co.Query(context.Background(), chaosQuery(refID))
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d query %d: %w", g, i, err)
					return
				}
				if resp.Class() != cluster.OutcomeFull {
					errCh <- fmt.Errorf("goroutine %d query %d degraded to %s (missing %v, stale %v)",
						g, i, resp.Class(), resp.Missing, resp.Stale)
					return
				}
				if got := mustJSON(t, resp.Results); !bytes.Equal(got, baseline) {
					errCh <- fmt.Errorf("goroutine %d query %d top-K diverged:\n got %s\nwant %s", g, i, got, baseline)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	snap := o.Snapshot()
	if snap.Counters["cluster_queries_total"] != goroutines*perG {
		t.Errorf("cluster_queries_total = %d, want %d", snap.Counters["cluster_queries_total"], goroutines*perG)
	}
	if snap.Counters["cluster_degraded_queries"] != 0 {
		t.Errorf("cluster_degraded_queries = %d under 1-replica flakes, want 0", snap.Counters["cluster_degraded_queries"])
	}
}
