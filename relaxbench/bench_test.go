package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"relaxlattice/internal/relaxd"
)

// small returns a named workload cut down to test size. The churn cut
// keeps three kill cycles, the third of which wipes its victim.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.preload = min(w.preload, 400)
	w.fixedOps = 60
	if w.churn != nil {
		w.fixedOps = 3*(w.churn.upOps+w.churn.downOps) + 10
	}
	return w
}

// The decorator must keep the client's parallel fanout: a transport
// that hid Concurrent would make the traced run measure a sequential
// client.
func TestTracedTransportIsConcurrent(t *testing.T) {
	pooled := relaxd.NewPooledTransport([]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, 0)
	defer pooled.Close()
	var tr relaxd.Transport = &tracedTransport{inner: pooled}
	ct, ok := tr.(relaxd.ConcurrentTransport)
	if !ok || !ct.Concurrent() {
		t.Fatalf("decorated pooled transport is not concurrent (implements=%v)", ok)
	}
}

// Tracing must not change what the serial workloads do: the same seed
// gives the same op outcomes and the same merged log, bare or traced.
func TestTracedRunMatchesBare(t *testing.T) {
	for _, name := range []string{"longlog-1c", "churn-1c"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			preload := genPreload(7, w.preload)
			dir := t.TempDir()
			bare, err := fixedPhase(filepath.Join(dir, "bare"), w, 7, preload, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := fixedPhase(filepath.Join(dir, "traced"), w, 7, preload, true)
			if err != nil {
				t.Fatal(err)
			}
			if w.churn != nil && len(traced.churn.rejoins) == 0 {
				t.Fatal("the churn schedule wiped no site")
			}
			b, tr := bare.outcomes[0], traced.outcomes[0]
			if len(b) != len(tr) || len(b) != w.fixedOps {
				t.Fatalf("ops: bare %d, traced %d, want %d", len(b), len(tr), w.fixedOps)
			}
			for i := range b {
				if !b[i].op.Equal(tr[i].op) || errText(b[i].err) != errText(tr[i].err) {
					t.Fatalf("op %d: bare %v (%v), traced %v (%v)", i, b[i].op, b[i].err, tr[i].op, tr[i].err)
				}
			}
			if bare.merged.Len() < w.preload+bare.ok {
				t.Fatalf("merged log holds %d entries, want at least %d", bare.merged.Len(), w.preload+bare.ok)
			}
			if !bare.merged.Equal(traced.merged) {
				t.Fatalf("merged logs differ: bare %d entries, traced %d", bare.merged.Len(), traced.merged.Len())
			}
		})
	}
}

// A burst that slows a minority of the windows leaves op_p90_ms where
// the undisturbed windows put it.
func TestWindowedQuantileIgnoresABurst(t *testing.T) {
	var xs []float64
	for w := 0; w < 9; w++ {
		for i := 0; i < 20; i++ {
			x := float64(i + 1) // each window's samples are 1..20
			if w == 2 || w == 3 {
				x *= 5 // two windows under a burst
			}
			xs = append(xs, x)
		}
	}
	xs = append(xs, 1000, 1000) // a trailing partial window
	if got, want := windowedQuantile(xs, 0.9, 20), quantile(xs[:20], 0.9); got != want {
		t.Fatalf("windowed p90 %v, want the undisturbed windows' %v", got, want)
	}
	if got := quantile(xs, 0.9); got <= 20 {
		t.Fatalf("whole-run p90 %v: the burst should have moved it", got)
	}
	if got, want := windowedQuantile(xs[:10], 0.9, 20), quantile(xs[:10], 0.9); got != want {
		t.Fatalf("short input: %v, want %v", got, want)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// The count metrics of the serial workloads repeat exactly for one
// seed, so they can stand as evidence across runs.
func TestCountMetricsRepeat(t *testing.T) {
	counts := []string{"wire.bytes_per_op", "wire.entries_per_op", "transport.roundtrips_per_op", "client.noresp_share"}
	for _, name := range []string{"longlog-1c", "churn-1c"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			first := tracedMetrics(t, w, 11)
			second := tracedMetrics(t, w, 11)
			for _, c := range counts {
				if first[c] != second[c] {
					t.Errorf("%s: %v then %v", c, first[c], second[c])
				}
			}
			if first["wire.bytes_per_op"] == 0 || first["transport.roundtrips_per_op"] == 0 {
				t.Errorf("counts were not measured: %v", first)
			}
		})
	}
}

// The traced decomposition reconciles: the parts plus the residual are
// the traced mean op time.
func TestDecompositionReconciles(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			m := tracedMetrics(t, small(t, w.name), 3)
			parts := []string{"transport.step1_us_per_op", "quorum.merge_us_per_op", "quorum.eval_us_per_op",
				"transport.step3_us_per_op", "relaxcheck.observe_us_per_op", "residual_us_per_op"}
			sum := 0.0
			for _, p := range parts {
				v, ok := m[p]
				if !ok {
					t.Fatalf("%s not reported", p)
				}
				sum += v
			}
			total := m["trace.op_mean_us"]
			if total <= 0 || math.Abs(sum-total) > 1e-9*total {
				t.Fatalf("parts sum to %v µs, mean op %v µs", sum, total)
			}
		})
	}
}

// Every workload's timed run reports exactly the end-to-end metrics
// BENCHMARK.json declares, with their units.
func TestTimedRunReportsDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := timedRun(t.TempDir(), small(t, w.name), 5, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			checkDeclared(t, rep, "end_to_end")
		})
	}
}

// tracedMetrics runs the traced breakdown, checks it reports exactly
// the per-layer metrics BENCHMARK.json declares, and returns them by
// name.
func tracedMetrics(t *testing.T, w workload, seed int64) map[string]float64 {
	t.Helper()
	rep, err := tracedRun(t.TempDir(), w, seed)
	if err != nil {
		t.Fatal(err)
	}
	checkDeclared(t, rep, "per_layer")
	m := make(map[string]float64, len(rep.metrics))
	for _, x := range rep.metrics {
		m[x.name] = x.value
	}
	return m
}

// checkDeclared holds a report to the metric list under key in the
// repository's BENCHMARK.json, and to no failed ops.
func checkDeclared(t *testing.T, rep *report, key string) {
	t.Helper()
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%d of %d ops failed", rep.failed, rep.attempted)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared []struct{ Name, Unit string }
	var spec struct {
		EndToEnd declared `json:"end_to_end"`
		PerLayer declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if key == "per_layer" {
		list = spec.PerLayer
	}
	want := map[string]string{}
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	got := map[string]string{}
	for _, m := range rep.metrics {
		got[m.name] = m.unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s metrics: got %v, BENCHMARK.json declares %v", key, got, want)
	}
}
