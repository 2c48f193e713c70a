package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/relaxd"
)

// deqShare is the product's op mix: relaxcli and the long-haul soak
// draw Deq with this probability and otherwise Enq of an element 1..9.
const deqShare = 0.45

// workload is one set of inputs: the service's shape, the load on it,
// and the failure schedule.
type workload struct {
	name string
	// clients is the closed-loop client count; the clients do not
	// serialize their ops.
	clients int
	// rung is the degradation-ladder rung every op runs at: "Q1Q2"
	// runs Execute, any other rung ExecuteUnder.
	rung string
	// checker attaches the live relaxcheck audit.
	checker bool
	// preload is how many certified history entries every site's
	// store holds before the load starts.
	preload       int
	store         relaxd.StoreOptions
	snapshotEvery int
	// churn, when set, kills and restarts sites on an op-indexed
	// schedule.
	churn *churnPlan
	// fixedOps is the op count of the fixed-length phases a traced
	// run compares, so both read the same inputs.
	fixedOps int
}

// captureEvery is how often a traced client re-times an op's messages:
// every captureEvery-th op, which bounds the time the re-timing takes.
const captureEvery = 10

// churnPlan is an op-indexed kill schedule: all sites serve for upOps
// ops, then one seeded victim is hard-killed for downOps ops and
// restarted from its store — every wipeEvery-th cycle from a wiped
// store, rejoining through snapshot shipping.
type churnPlan struct {
	upOps, downOps, wipeEvery int
}

var workloads = []workload{
	{
		name:     "fresh-2c",
		clients:  2,
		rung:     "none",
		fixedOps: 1200,
	},
	{
		name:     "longlog-1c",
		clients:  1,
		rung:     "Q1Q2",
		checker:  true,
		preload:  10000,
		fixedOps: 100,
	},
	{
		name:          "churn-1c",
		clients:       1,
		rung:          "Q1Q2",
		checker:       true,
		store:         relaxd.StoreOptions{SyncEvery: 1 << 20, SegmentRecords: 100},
		snapshotEvery: 200,
		churn:         &churnPlan{upOps: 20, downOps: 20, wipeEvery: 3},
		fixedOps:      1200,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// invGen draws invocations from the product's op mix.
type invGen struct{ rng *rand.Rand }

func (g invGen) next() history.Invocation {
	if g.rng.Float64() < deqShare {
		return history.DeqInv()
	}
	return history.EnqInv(g.rng.Intn(9) + 1)
}

// clientGen is client c's invocation stream — seeded like relaxcli and
// the long-haul soak.
func clientGen(seed int64, c int) invGen {
	return invGen{rand.New(rand.NewSource(seed + int64(c)))}
}

// genPreload returns n log entries of a sequential priority-queue
// history drawn from the op mix, written by one clock identity. Deqs
// on an empty queue get no response and are not logged.
func genPreload(seed int64, n int) []quorum.Entry {
	g := invGen{rand.New(rand.NewSource(seed ^ 0x70726c64))}
	fold := quorum.PQFold()
	state := fold.Init()[0]
	entries := make([]quorum.Entry, 0, n)
	for len(entries) < n {
		op, ok := cluster.PQResponder(state, g.next())
		if !ok {
			continue
		}
		state = fold.Step(state, op)[0]
		entries = append(entries, quorum.Entry{TS: quorum.Timestamp{Time: len(entries) + 1, Site: sites + 1}, Op: op})
	}
	return entries
}

// certifyPreload is the gate on generated input: the preload must
// certify at Q1Q2 before any site stores it.
func certifyPreload(entries []quorum.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	if v := relaxcheck.Certify(core.TaxiSimpleLattice(), nil, "Q1Q2", quorum.LogOf(entries...).History()); v != nil {
		return fmt.Errorf("preload does not certify at Q1Q2: %v", v)
	}
	return nil
}

// outcome is one attempted op as its client saw it.
type outcome struct {
	op  history.Op
	err error
}

// phase is one closed-loop load phase's record.
type phase struct {
	wall time.Duration
	// lats holds the latency of every completed op, ok and no
	// response alike, in the order the ops completed.
	lats               []time.Duration
	ok, noResp, failed int
	// outcomes holds every op per client in the order it ran; fixed-length
	// phases only, so a timed phase's heap holds no record of its ops.
	outcomes [][]outcome
	churn    restartStats
	// merged is the sites' merged log once the gates passed, and
	// maxFrontier the live checker's largest frontier (0 without one).
	merged      quorum.Log
	maxFrontier int
	// allocBytes and gcs are the process's heap allocation and GC
	// cycles during the phase.
	allocBytes uint64
	gcs        uint32
	traces     []opTrace // traced phases only
	retimed    retimed   // traced phases only
}

func (p *phase) attempted() int { return p.ok + p.noResp + p.failed }

// stopRule ends a phase at a deadline or after a fixed op count.
type stopRule struct {
	deadline time.Time
	ops      int64
	started  atomic.Int64
}

// take reports whether one more op may start.
func (s *stopRule) take() bool {
	if s.ops > 0 {
		return s.started.Add(1) <= s.ops
	}
	return time.Now().Before(s.deadline)
}

// runPhase drives the service with the workload's closed-loop clients
// until stop says otherwise. traced routes each client through the
// transport and audit decorators and records every op's trace.
func runPhase(svc *service, w workload, seed int64, stop *stopRule, traced bool) (*phase, error) {
	gate := quorum.TaxiAssignments(sites)[w.rung]
	p := &phase{outcomes: make([][]outcome, w.clients)}
	var (
		mu    sync.Mutex // guards p and fatal while clients run
		wg    sync.WaitGroup
		fatal error
	)
	var sched *churnSchedule
	if w.churn != nil {
		if w.clients != 1 {
			return nil, fmt.Errorf("a churn schedule needs exactly one client, have %d", w.clients)
		}
		sched = newChurnSchedule(*w.churn, seed)
	}
	// Every phase starts from a collected heap, whatever set-up left.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		var tt *tracedTransport
		var ta *timedAudit
		cfg := relaxd.PQClientConfig(svc.tr)
		if svc.checker != nil {
			cfg.Audit = svc.checker
		}
		if traced {
			tt = &tracedTransport{inner: svc.tr}
			cfg.Transport = tt
			if svc.checker != nil {
				ta = &timedAudit{inner: svc.checker}
				cfg.Audit = ta
			}
		}
		cl := relaxd.NewClient(cfg, sites+2+c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := clientGen(seed, c)
			var rt retimed
			defer func() {
				mu.Lock()
				p.retimed.addAll(rt)
				mu.Unlock()
			}()
			for i := 0; stop.take(); i++ {
				if sched != nil {
					if err := sched.before(svc, i, &p.churn); err != nil {
						mu.Lock()
						fatal = err
						mu.Unlock()
						return
					}
				}
				inv := gen.next()
				t0 := time.Now()
				var op history.Op
				var err error
				if w.rung == "Q1Q2" {
					op, err = cl.Execute(inv)
				} else {
					op, err = cl.ExecuteUnder(inv, gate, w.rung)
				}
				lat := time.Since(t0)
				var tr opTrace
				if traced {
					var cp *capture
					tr, cp = summarize(lat, tt.take(), ta, i%captureEvery == 0)
					if cp != nil {
						err := rt.add(cp)
						if err != nil {
							mu.Lock()
							fatal = err
							mu.Unlock()
							return
						}
					}
				}
				mu.Lock()
				if stop.ops > 0 {
					p.outcomes[c] = append(p.outcomes[c], outcome{op, err})
				}
				switch {
				case err == nil:
					p.ok++
					p.lats = append(p.lats, lat)
				case errors.Is(err, cluster.ErrNoResponse):
					p.noResp++
					p.lats = append(p.lats, lat)
				default:
					p.failed++
				}
				if traced {
					p.traces = append(p.traces, tr)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.allocBytes, p.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	if fatal == nil && sched != nil {
		// Bring the last victim back so the gates see every site.
		fatal = sched.finish(svc, &p.churn)
	}
	return p, fatal
}

// churnSchedule runs a churnPlan from inside the single client's loop,
// between ops, so the schedule is a function of the op index alone.
type churnSchedule struct {
	plan   churnPlan
	rng    *rand.Rand
	cycle  int
	victim int // -1 when every site serves
}

func newChurnSchedule(plan churnPlan, seed int64) *churnSchedule {
	return &churnSchedule{plan: plan, rng: rand.New(rand.NewSource(seed ^ 0x6b696c6c)), victim: -1}
}

// before runs the schedule's step due before op i.
func (s *churnSchedule) before(svc *service, i int, st *restartStats) error {
	switch i % (s.plan.upOps + s.plan.downOps) {
	case s.plan.upOps:
		s.cycle++
		s.victim = s.rng.Intn(sites)
		svc.kill(s.victim)
	case 0:
		return s.finish(svc, st)
	}
	return nil
}

// finish restarts the current victim, if any.
func (s *churnSchedule) finish(svc *service, st *restartStats) error {
	if s.victim < 0 {
		return nil
	}
	victim := s.victim
	s.victim = -1
	return svc.restart(victim, s.cycle%s.plan.wipeEvery == 0, st)
}

// verify holds a finished phase to the workload's correctness gates:
// the live checker stays clean, the merged logs hold every acked op
// and certify at the workload's rung.
func verify(svc *service, w workload, p *phase) error {
	if svc.checker != nil {
		if v := svc.checker.Violation(); v != nil {
			return fmt.Errorf("live checker: %v", v)
		}
		p.maxFrontier = svc.checker.MaxFrontier()
	}
	merged := svc.mergedLog()
	if want := w.preload + p.ok; merged.Len() < want {
		return fmt.Errorf("merged log holds %d entries, %d were acked or preloaded", merged.Len(), want)
	}
	if v := relaxcheck.Certify(core.TaxiSimpleLattice(), nil, w.rung, merged.History()); v != nil {
		return fmt.Errorf("merged log does not certify at %s: %v", w.rung, v)
	}
	p.merged = merged
	return nil
}
