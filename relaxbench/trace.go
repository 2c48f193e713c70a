package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/relaxd"
)

// The traced run times the calls into each layer's public functions
// from the benchmark's side of the boundary. Two decorators sit on the
// live path — one around the pooled transport's RoundTrip, one around
// the checker's ObserveOp — and everything else is re-timed after the
// phase on the messages the transport decorator captured.

// call is one round trip as the transport decorator saw it.
type call struct {
	site       int
	req, resp  relaxd.Message
	err        error
	start, end time.Time
}

// tracedTransport decorates the shared pooled transport for one
// client: it times every RoundTrip and keeps the calls of the op in
// flight. It forwards Concurrent, so the client fans out exactly as it
// does over the bare pooled transport.
type tracedTransport struct {
	inner relaxd.ConcurrentTransport
	mu    sync.Mutex
	calls []call // guarded by mu; the client's fanout goroutines append
}

func (t *tracedTransport) Sites() int       { return t.inner.Sites() }
func (t *tracedTransport) Concurrent() bool { return t.inner.Concurrent() }

func (t *tracedTransport) RoundTrip(site int, req relaxd.Message) (relaxd.Message, error) {
	start := time.Now()
	resp, err := t.inner.RoundTrip(site, req)
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, call{site: site, req: req, resp: resp, err: err, start: start, end: end})
	t.mu.Unlock()
	return resp, err
}

// take returns the calls recorded since the last take.
func (t *tracedTransport) take() []call {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := t.calls
	t.calls = nil
	return calls
}

// timedAudit decorates the live checker for one client and sums the
// time its ObserveOp calls take. The client calls it from its own
// goroutine only.
type timedAudit struct {
	inner *relaxcheck.Checker
	busy  time.Duration
}

func (a *timedAudit) ObserveOp(op history.Op) {
	start := time.Now()
	a.inner.ObserveOp(op)
	a.busy += time.Since(start)
}

// appendBatch is what one acked MsgAppend made a site append.
type appendBatch struct {
	site    int
	entries []quorum.Entry
}

// opTrace is one op's record in a traced phase.
type opTrace struct {
	total, step1, step3, observe time.Duration
	roundtrips, errors           int
	getlogRTT, appendRTT         []time.Duration
	appends                      []appendBatch
}

// capture is every message one op sent or received, and its step-1
// logs — the input of the re-timing.
type capture struct {
	msgs    []relaxd.Message
	replies [][]quorum.Entry
}

// summarize turns one op's calls into its trace, and into a capture
// when keep is set. The step windows run from the first request of a
// fanout to its last reply.
func summarize(total time.Duration, calls []call, audit *timedAudit, keep bool) (opTrace, *capture) {
	tr := opTrace{total: total, roundtrips: len(calls)}
	if audit != nil {
		tr.observe = audit.busy
		audit.busy = 0
	}
	var cp *capture
	if keep {
		cp = &capture{}
	}
	var s1, s3 window
	for _, c := range calls {
		if c.err != nil {
			tr.errors++
		}
		rtt := c.end.Sub(c.start)
		switch c.req.Type {
		case relaxd.MsgGetLog:
			s1.add(c.start, c.end)
			tr.getlogRTT = append(tr.getlogRTT, rtt)
			if cp != nil && c.err == nil && c.resp.Type == relaxd.MsgLog {
				cp.replies = append(cp.replies, c.resp.Entries)
			}
		case relaxd.MsgAppend:
			s3.add(c.start, c.end)
			tr.appendRTT = append(tr.appendRTT, rtt)
			if c.err == nil && c.resp.Type == relaxd.MsgAck && c.resp.N > 0 {
				// The request is the whole view, sorted by timestamp; the
				// site appended the N entries it lacked. The store replay
				// takes the newest N, which is exact when the site missed
				// nothing but this op's entry and the size-alike otherwise.
				// The copy keeps the view itself collectable.
				e := c.req.Entries
				tail := append([]quorum.Entry(nil), e[len(e)-min(c.resp.N, len(e)):]...)
				tr.appends = append(tr.appends, appendBatch{site: c.site, entries: tail})
			}
		}
		if cp != nil {
			cp.msgs = append(cp.msgs, c.req)
			if c.err == nil {
				cp.msgs = append(cp.msgs, c.resp)
			}
		}
	}
	tr.step1, tr.step3 = s1.span(), s3.span()
	return tr, cp
}

// window is the hull of a set of time intervals.
type window struct{ first, last time.Time }

func (w *window) add(start, end time.Time) {
	if w.first.IsZero() || start.Before(w.first) {
		w.first = start
	}
	if end.After(w.last) {
		w.last = end
	}
}

func (w window) span() time.Duration {
	if w.first.IsZero() {
		return 0
	}
	return w.last.Sub(w.first)
}

// retimed accumulates what re-timing the captured ops measured.
type retimed struct {
	ops            int
	bytes, entries int
	encode, decode time.Duration
	merge, eval    time.Duration
	// wall is the time the re-timing itself took.
	wall time.Duration
	buf  []byte
}

// add re-runs one captured op's codec and client-side work: every
// message through AppendMessage and DecodeMessage, the step-1 logs
// through quorum.Merge and PQFold().EvalLog. The traced phase calls it
// between ops and drops the capture, so captures never pile up in the
// heap the service shares with the benchmark.
func (r *retimed) add(cp *capture) error {
	start := time.Now()
	defer func() { r.wall += time.Since(start) }()
	r.ops++
	for _, m := range cp.msgs {
		r.entries += len(m.Entries) + len(m.Wal)
		t0 := time.Now()
		b, err := relaxd.AppendMessage(r.buf[:0], m)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("re-encode: %w", err)
		}
		if _, err := relaxd.DecodeMessage(b); err != nil {
			return fmt.Errorf("re-decode: %w", err)
		}
		r.decode += time.Since(t1)
		r.encode += t1.Sub(t0)
		r.bytes += len(b)
		r.buf = b
	}
	if len(cp.replies) == 0 {
		return nil
	}
	t0 := time.Now()
	logs := make([]quorum.Log, len(cp.replies))
	for i, entries := range cp.replies {
		logs[i] = quorum.LogOf(entries...)
	}
	view := quorum.Merge(logs...)
	t1 := time.Now()
	if len(quorum.PQFold().EvalLog(view)) == 0 {
		return fmt.Errorf("captured view not interpretable by η")
	}
	r.eval += time.Since(t1)
	r.merge += t1.Sub(t0)
	return nil
}

// addAll folds another client's accumulator into r.
func (r *retimed) addAll(o retimed) {
	r.ops += o.ops
	r.bytes += o.bytes
	r.entries += o.entries
	r.encode += o.encode
	r.decode += o.decode
	r.merge += o.merge
	r.eval += o.eval
	r.wall += o.wall
}

// replayCap bounds how many append batches per site the store replay
// times, which bounds the fsyncs it waits for.
const replayCap = 100

// replayStore replays each site's append sequence from a traced phase
// through AppendBatch and WaitDurable on a fresh store under dir, and
// returns the staging and durability-wait times of every batch.
func replayStore(dir string, opts relaxd.StoreOptions, traces []opTrace) (stage, durable []time.Duration, err error) {
	perSite := make([][][]quorum.Entry, sites)
	for _, tr := range traces {
		for _, b := range tr.appends {
			if len(perSite[b.site]) < replayCap {
				perSite[b.site] = append(perSite[b.site], b.entries)
			}
		}
	}
	for site, batches := range perSite {
		sdir := siteDir(dir, site)
		st, _, _, err := relaxd.OpenStore(sdir, opts)
		if err != nil {
			return nil, nil, err
		}
		for _, batch := range batches {
			t0 := time.Now()
			target, err := st.AppendBatch(batch)
			t1 := time.Now()
			if err == nil {
				err = st.WaitDurable(target)
			}
			if err != nil {
				st.Close()
				return nil, nil, err
			}
			durable = append(durable, time.Since(t1))
			stage = append(stage, t1.Sub(t0))
		}
		if err := st.Close(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(sdir); err != nil {
			return nil, nil, err
		}
	}
	return stage, durable, nil
}
