package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"sommelier/internal/repo"
)

// smoke runs one workload at a small rung (12 to 48 models, two seconds
// measured, a few thousand queries): about three seconds untraced.
func smoke(t *testing.T, workload string, trace bool) (*Report, *Tracer) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a workload")
	}
	scale, seconds := 0.17, 2.0
	if trace {
		scale, seconds = 2*scale, 2*seconds // a traced run halves both again
	}
	rep, tr, err := Run(context.Background(), Config{Workload: workload, Seed: 5, Seconds: seconds, Scale: scale, Trace: trace, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("hard check failed: %s", p)
	}
	return rep, tr
}

// wantChecks names the hard checks every run must have evaluated at
// least once, and those of hub_cluster beyond them.
var (
	wantChecks        = []string{"generator_deterministic", "indexed_count", "oracle_no_stray_result", "batch_equals_serial", "hydrate_byte_identical"}
	wantClusterChecks = []string{"coordinator_full", "coordinator_equals_shard_merge", "pulls_uncached"}
)

func TestSmokeEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			rep, _ := smoke(t, w, false)
			var text, line bytes.Buffer
			rep.WriteText(&text)
			for _, d := range EndToEnd {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: got %+v (reported: %v), want unit %s", d.Name, m, ok, d.Unit)
				}
				if m.Value <= 0 {
					t.Errorf("%s = %g; a gated metric must never read 0", d.Name, m.Value)
				}
				if !strings.Contains(text.String(), "  "+d.Name+" ") {
					t.Errorf("%s is not printed by name", d.Name)
				}
			}
			if got := rep.Metrics["success_ratio"].Value; got != 1 {
				t.Errorf("success_ratio = %g (%d of %d operations failed), want 1", got, rep.Failed, rep.Attempted)
			}
			if got := rep.Metrics["query_oracle_recall"].Value; got <= 0 || got > 1 {
				t.Errorf("query_oracle_recall = %g, want within (0, 1]", got)
			}
			checks := wantChecks
			if w == "hub_cluster" {
				checks = append(checks[:len(checks):len(checks)], wantClusterChecks...)
			}
			for _, c := range checks {
				if rep.Checks[c] == 0 {
					t.Errorf("hard check %s never ran", c)
				}
			}
			if err := rep.WriteResultLine(&line, EndToEnd); err != nil {
				t.Fatal(err)
			}
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]Metric `json:"metrics"`
			}
			if err := json.Unmarshal(line.Bytes(), &res); err != nil {
				t.Fatalf("result line is not JSON: %v\n%s", err, line.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(EndToEnd) {
				t.Errorf("result line: correct=%v attempted=%d failed=%d with %d metrics, want true, ≥1, 0, %d",
					res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(EndToEnd))
			}
		})
	}
}

func TestSmokeTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	for _, w := range []string{"query_mix", "hub_cluster"} {
		t.Run(w, func(t *testing.T) {
			rep, tr := smoke(t, w, true)
			var line bytes.Buffer
			if err := rep.WriteResultLine(&line, PerLayer); err != nil {
				t.Fatal(err)
			}
			acc := tr.Account()
			if len(acc) == 0 {
				t.Fatal("the traced run recorded no operation")
			}
			var table bytes.Buffer
			WriteAccounting(&table, w, acc)
			roots := map[string]bool{}
			for _, a := range acc {
				roots[a.Root] = true
				if a.Ops == 0 || a.TotalUS <= 0 {
					t.Errorf("accounting row %s has %d ops over %g us", a.Root, a.Ops, a.TotalUS)
				}
			}
			want := []string{"op.bulk_index", "op.register", "op.query", "op.query_batch", "op.load"}
			if w == "hub_cluster" {
				want = []string{"op.cluster_publish", "op.coord_query", "op.coord_query_batch", "op.cluster_load", "op.query"}
			}
			for _, r := range want {
				if !roots[r] {
					t.Errorf("no accounting row for %s in:\n%s", r, table.String())
				}
			}
			var spans bytes.Buffer
			if err := tr.WriteJSONL(&spans); err != nil {
				t.Fatal(err)
			}
			var first Span
			if err := json.Unmarshal(bytes.SplitN(spans.Bytes(), []byte("\n"), 2)[0], &first); err != nil || first.Name == "" {
				t.Errorf("first span line does not decode: %v", err)
			}
		})
	}
}

// A wrong answer must fail the run: here the expected digest of one
// model is corrupted, as a model that hydrates to different bytes would.
func TestHardCheckFailureMakesTheRunIncorrect(t *testing.T) {
	pop, err := HubPopulation(CorpusSeed, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := repo.NewInMemory()
	for _, m := range pop.Models {
		if _, err := store.Publish(m); err != nil {
			t.Fatal(err)
		}
	}
	pop.Digests[3] = strings.Repeat("0", 64)
	h := NewHarness(nil)
	if err := checkHydration(h, store, pop); err != nil {
		t.Fatal(err)
	}
	rep := newReport(Config{Workload: "ingest"})
	rep.finish(h)
	if rep.Correct() || rep.Failed != 1 || len(rep.Problems) != 1 {
		t.Errorf("correct=%v failed=%d problems=%v, want one failed hydration check", rep.Correct(), rep.Failed, rep.Problems)
	}
	if got := rep.Metrics["success_ratio"].Value; got >= 1 {
		t.Errorf("success_ratio = %g after a failed check", got)
	}
}

// The metric lists in report.go are the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatchesTheMetricLists(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []Bound     `json:"end_to_end"`
		PerLayer []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the suite %d", len(file.Workloads), len(Workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the suite", i, w.Name, Workloads[i])
		}
	}
	if len(file.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, report.go %d", len(file.EndToEnd), len(EndToEnd))
	}
	for i, m := range file.EndToEnd {
		if m.Name != EndToEnd[i].Name || m.Unit != EndToEnd[i].Unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in report.go", i, m.Name, m.Unit, EndToEnd[i].Name, EndToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(file.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, report.go %d", len(file.PerLayer), len(PerLayer))
	}
	for i, m := range file.PerLayer {
		if m != PerLayer[i] {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in report.go", i, m, PerLayer[i])
		}
	}
}

// The bounds in BENCHMARK.json rest on the committed noise study: the
// table was made with them, no row is over, and a timing bound is at
// least twice the widest quartile spread the study saw for its metric on
// any workload, unless that is beyond the contract's 25 %. A bound that
// is tightened without a new study fails here.
func TestBoundsFollowTheNoiseStudy(t *testing.T) {
	bounds, err := LoadBounds("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("NOISE.md")
	if err != nil {
		t.Fatal(err)
	}
	percents := func(cell string) []float64 {
		var out []float64
		for _, f := range strings.Fields(cell) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(f, "%"), 64)
			if err != nil {
				t.Fatalf("NOISE.md: %q is not a percentage", f)
			}
			out = append(out, v/100)
		}
		return out
	}
	worst := map[string]float64{}
	timing := map[string]bool{}
	rows := 0
	for _, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 10 || strings.TrimSpace(cells[1]) == "workload" || strings.HasPrefix(strings.TrimSpace(cells[1]), "-") {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows++
		workload, metric := cells[1], cells[2]
		b, ok := bounds[metric]
		if !ok {
			t.Fatalf("NOISE.md has a row for %s, BENCHMARK.json has no such metric", metric)
		}
		if got := percents(cells[7]); len(got) != 1 || math.Abs(got[0]-b.Bound) > 0.005 {
			t.Errorf("%s/%s: NOISE.md was made with bound %s, BENCHMARK.json says %g", workload, metric, cells[7], b.Bound)
		}
		if cells[8] != "ok" {
			t.Errorf("%s/%s: the noise study found the row %s", workload, metric, cells[8])
		}
		for _, sp := range percents(cells[4]) {
			worst[metric] = max(worst[metric], sp)
		}
		timing[metric] = timing[metric] || cells[5] != ""
	}
	if want := len(Workloads) * len(EndToEnd); rows != want {
		t.Fatalf("NOISE.md has %d rows, want %d", rows, want)
	}
	for metric, b := range bounds {
		switch {
		case metric == "setup_s":
			if b.Bound != 0.25 {
				t.Errorf("setup_s has bound %g; it gets the largest, 0.25", b.Bound)
			}
		case timing[metric]:
			if lo := min(2*worst[metric], 0.25); b.Bound < lo-0.005 {
				t.Errorf("%s: bound %g, but the widest spread measured is %.1f%%: want at least %.2f", metric, b.Bound, 100*worst[metric], lo)
			}
		default:
			if worst[metric] > b.Bound/2 {
				t.Errorf("%s: a count with bound %g spread by %.2f%%", metric, b.Bound, 100*worst[metric])
			}
		}
	}
}
