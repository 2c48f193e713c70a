// Command relaxbench is the end-to-end benchmark of the relaxd
// service: five durable sites on loopback TCP behind the pooled mux
// transport, driven by closed-loop relaxd.Clients in one process.
//
//	relaxbench --workload fresh-2c|longlog-1c|churn-1c --seed N --seconds S --trace 0|1 [--dir D]
//
// With --trace 0 it measures the service for S seconds and prints the
// end-to-end metrics; with --trace 1 it runs the workload's fixed op
// count twice, once bare and once through the call-boundary
// decorators, and prints the per-layer breakdown. Either way the last
// line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a failed correctness
// gate exits non-zero without it. bash relaxbench/run.sh builds the
// command from source and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"relaxlattice/internal/quorum"
)

// A timed run sets the service up at least setupRepeats times and for
// at least setupSpan, reports the median set-up time and measures the
// last one. An empty service sets up in a few milliseconds, mostly
// fsyncs, so fifteen of them alone would sample one moment of the
// host's disk; the span spreads them over a second.
const (
	setupRepeats = 15
	setupSpan    = time.Second
)

// p90Window is the op count of the windows op_p90_ms is the median
// 90th percentile of: one whole kill cycle of churn-1c, so that no
// window sits wholly in its all-up or its one-down phase.
const p90Window = 40

type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's result.
type report struct {
	attempted, failed int
	metrics           []metric // the JSON metrics
	notes             []metric // printed for people only
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relaxbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("relaxbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fresh-2c, longlog-1c or churn-1c")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the measured phase of an untraced run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced breakdown instead of the timed measurement")
	dir := fs.String("dir", ".bench_build/run", "scratch directory for the sites' stores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(*dir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	var rep *report
	if *traceFlag == 1 {
		rep, err = tracedRun(root, w, *seed)
	} else {
		rep, err = timedRun(root, w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "relaxbench workload=%s seed=%d trace=%d clients=%d rung=%s checker=%v\n",
		w.name, *seed, *traceFlag, w.clients, w.rung, w.checker)
	for _, m := range append(rep.metrics, rep.notes...) {
		fmt.Fprintf(out, "  %-38s %16.4f %s\n", m.name, m.value, m.unit)
	}
	return printJSON(out, rep)
}

func printJSON(out io.Writer, rep *report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// timedRun sets the service up as the set-up constants say, then
// measures the last set-up for d and holds the result to the
// correctness gates.
func timedRun(root string, w workload, seed int64, d time.Duration) (*report, error) {
	preload := genPreload(seed, w.preload)
	if err := certifyPreload(preload); err != nil {
		return nil, err
	}
	var setups []float64
	var svc *service
	for begin := time.Now(); len(setups) < setupRepeats || time.Since(begin) < setupSpan; {
		if svc != nil {
			svc.close()
			if err := os.RemoveAll(svc.root); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(root, "setup-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		svc, err = openService(dir, w, preload)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer svc.close()

	p, err := runPhase(svc, w, seed, &stopRule{deadline: time.Now().Add(d)}, false)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if err := verify(svc, w, p); err != nil {
		return nil, err
	}
	lats := durationsIn(p.lats, ms) // in completion order
	completed := p.ok + p.noResp
	rep := &report{
		attempted: p.attempted(),
		failed:    p.failed,
		metrics: []metric{
			{"ops_per_s", float64(completed) / p.wall.Seconds(), "ops/s"},
			{"op_p50_ms", quantile(lats, 0.5), "ms"},
			{"op_p90_ms", windowedQuantile(lats, 0.9, p90Window), "ms"},
			{"heap_live_mb", float64(mem.HeapAlloc) / (1 << 20), "MiB"},
			{"setup_s", median(setups), "s"},
		},
		notes: []metric{
			{"op_samples", float64(len(lats)), "count"},
			{"setup_samples", float64(len(setups)), "count"},
			{"failed_share", float64(p.failed) / float64(p.attempted()), "ratio"},
			{"client.noresp_share", float64(p.noResp) / float64(p.attempted()), "ratio"},
			{"process.alloc_bytes_per_op", float64(p.allocBytes) / float64(p.attempted()), "B"},
			{"process.gc_per_kop", float64(p.gcs) * 1000 / float64(p.attempted()), "count"},
		},
	}
	// The tail percentile is reported only where ten samples lie
	// beyond it.
	if len(lats) >= 1000 {
		rep.notes = append(rep.notes, metric{"op_p99_ms", quantile(lats, 0.99), "ms"})
	}
	if n := len(p.churn.rejoins); n > 0 {
		rep.notes = append(rep.notes,
			metric{"rejoin_ms", median(durationsIn(p.churn.rejoins, ms)), "ms"},
			metric{"rejoin_samples", float64(n), "count"})
	}
	return rep, nil
}

// fixedPhase sets the service up under root and runs the workload's
// fixed op count on it, bare or traced, through the gates. A traced
// phase of a workload that kills no site gets the rejoin probe
// afterwards.
func fixedPhase(root string, w workload, seed int64, preload []quorum.Entry, traced bool) (*phase, error) {
	svc, err := openService(root, w, preload)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	p, err := runPhase(svc, w, seed, &stopRule{ops: int64(w.fixedOps)}, traced)
	if err == nil {
		err = verify(svc, w, p)
	}
	if err == nil && traced && w.churn == nil {
		err = svc.probeRejoins(&p.churn)
	}
	return p, err
}

// tracedRun runs the workload's fixed op count bare and then traced,
// each on a fresh service, and breaks the traced op down by layer.
func tracedRun(root string, w workload, seed int64) (*report, error) {
	preload := genPreload(seed, w.preload)
	if err := certifyPreload(preload); err != nil {
		return nil, err
	}
	bare, err := fixedPhase(filepath.Join(root, "bare"), w, seed, preload, false)
	if err != nil {
		return nil, err
	}
	tp, err := fixedPhase(filepath.Join(root, "traced"), w, seed, preload, true)
	if err != nil {
		return nil, err
	}
	stage, durable, err := replayStore(filepath.Join(root, "replay"), w.store, tp.traces)
	if err != nil {
		return nil, err
	}
	return &report{
		attempted: bare.attempted() + tp.attempted(),
		failed:    bare.failed + tp.failed,
		metrics:   layerMetrics(bare, tp, stage, durable),
	}, nil
}

// layerMetrics assembles the per-layer breakdown. Live-timed parts are
// means over every traced op, re-timed parts means over the captured
// ops; the residual is what the parts leave of the mean op time.
func layerMetrics(bare, tp *phase, stage, durable []time.Duration) []metric {
	n := float64(len(tp.traces))
	var opT, s1, s3, obs float64
	var rts, errs int
	var getlog, appendRTT []time.Duration
	for _, tr := range tp.traces {
		opT += us(tr.total)
		s1 += us(tr.step1)
		s3 += us(tr.step3)
		obs += us(tr.observe)
		rts += tr.roundtrips
		errs += tr.errors
		getlog = append(getlog, tr.getlogRTT...)
		appendRTT = append(appendRTT, tr.appendRTT...)
	}
	opT, s1, s3, obs = opT/n, s1/n, s3/n, obs/n
	rt := tp.retimed
	capt := float64(max(rt.ops, 1))
	merge, eval := us(rt.merge)/capt, us(rt.eval)/capt
	bareN := float64(bare.attempted())
	// The re-timing runs between traced ops; it is not tracing
	// overhead, so the traced throughput leaves it out.
	tracedWall := tp.wall - rt.wall/time.Duration(len(tp.outcomes))
	opsPerS := func(p *phase, wall time.Duration) float64 { return float64(p.ok+p.noResp) / wall.Seconds() }
	c := tp.churn
	return []metric{
		{"client.self_us_per_op", opT - s1 - s3 - obs, "us"},
		{"client.noresp_share", float64(tp.noResp) / float64(tp.attempted()), "ratio"},
		{"residual_us_per_op", opT - s1 - merge - eval - s3 - obs, "us"},
		{"transport.roundtrips_per_op", float64(rts) / n, "count"},
		{"transport.errors_per_op", float64(errs) / n, "count"},
		{"transport.step1_us_per_op", s1, "us"},
		{"transport.step3_us_per_op", s3, "us"},
		{"transport.getlog_rtt_us_p50", median(durationsIn(getlog, us)), "us"},
		{"transport.append_rtt_us_p50", median(durationsIn(appendRTT, us)), "us"},
		{"wire.bytes_per_op", float64(rt.bytes) / capt, "B"},
		{"wire.entries_per_op", float64(rt.entries) / capt, "count"},
		{"wire.encode_us_per_op", us(rt.encode) / capt, "us"},
		{"wire.decode_us_per_op", us(rt.decode) / capt, "us"},
		{"quorum.merge_us_per_op", merge, "us"},
		{"quorum.eval_us_per_op", eval, "us"},
		{"relaxcheck.observe_us_per_op", obs, "us"},
		{"relaxcheck.max_frontier", float64(tp.maxFrontier), "count"},
		{"store.stage_us_p50", median(durationsIn(stage, us)), "us"},
		{"store.durable_us_p50", median(durationsIn(durable, us)), "us"},
		{"store.restart_ms_p50", median(durationsIn(c.restarts, ms)), "ms"},
		{"store.recovered_entries_per_restart", mean(intsToFloats(c.recovered)), "count"},
		{"ship.join_ms_p50", median(durationsIn(c.joins, ms)), "ms"},
		{"ship.entries_per_join", mean(intsToFloats(c.shipped)), "count"},
		{"process.alloc_bytes_per_op", float64(bare.allocBytes) / bareN, "B"},
		{"process.gc_per_kop", float64(bare.gcs) * 1000 / bareN, "count"},
		{"trace.op_mean_us", opT, "us"},
		{"trace.overhead_share", 1 - opsPerS(tp, tracedWall)/opsPerS(bare, bare.wall), "ratio"},
	}
}
