package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/relaxd"
)

// sites is the replica count of every workload.
const sites = 5

// preloadChunk is how many preload entries go into one AppendBatch.
const preloadChunk = 1000

// service is one running relaxd deployment: durable replicas, each
// serving loopback TCP on its own listener, reached through one pooled
// mux transport that every client shares.
type service struct {
	root     string
	addrs    []string
	replicas []*relaxd.Replica
	servers  []*relaxd.SiteServer // nil while a site is killed
	tr       *relaxd.PooledTransport
	checker  *relaxcheck.Checker // nil when the workload runs without the audit
	// certify judges state shipped to a rejoining site.
	certify func(history.History) error
}

// restartStats collects what site restarts and rejoins cost.
type restartStats struct {
	restarts  []time.Duration // Replica.Restart of a kept store
	recovered []int           // RecoveryInfo entries per such restart
	joins     []time.Duration // JoinFrom
	shipped   []int           // JoinInfo entries per join
	rejoins   []time.Duration // wiped site: restart + JoinFrom + re-listen
}

func siteDir(root string, site int) string {
	return filepath.Join(root, fmt.Sprintf("site%d", site))
}

// openService is the benchmark's set-up: it writes the preload into
// every site's store, opens the replicas, starts the listeners, primes
// the live checker with the preload when the workload audits, and
// dials every site once.
func openService(root string, w workload, preload []quorum.Entry) (*service, error) {
	if len(preload) > 0 {
		for i := 0; i < sites; i++ {
			if err := writePreload(siteDir(root, i), w.store, preload); err != nil {
				return nil, fmt.Errorf("preload site %d: %w", i, err)
			}
		}
	}
	replicas, err := relaxd.OpenSites(root, sites, w.store)
	if err != nil {
		return nil, err
	}
	svc := &service{root: root, replicas: replicas, servers: make([]*relaxd.SiteServer, sites),
		certify: shipCertifier(w.rung)}
	for i, r := range replicas {
		r.SnapshotEvery = w.snapshotEvery
		s, err := relaxd.ListenSite("127.0.0.1:0", r)
		if err != nil {
			svc.close()
			return nil, err
		}
		svc.servers[i] = s
		svc.addrs = append(svc.addrs, s.Addr())
	}
	if w.checker {
		lat := core.TaxiSimpleLattice()
		svc.checker = relaxcheck.New(lat, relaxcheck.Options{Claims: relaxcheck.TaxiClaims(lat.Universe)})
		svc.checker.ObserveClaim(-1, "Q1Q2")
		for _, e := range preload {
			svc.checker.ObserveOp(e.Op)
		}
	}
	svc.tr = relaxd.NewPooledTransport(svc.addrs, 0)
	for i := range svc.addrs {
		resp, err := svc.tr.RoundTrip(i, relaxd.Message{Type: relaxd.MsgPing})
		if err == nil && resp.Type != relaxd.MsgPong {
			err = fmt.Errorf("reply type %d to a ping", resp.Type)
		}
		if err != nil {
			svc.close()
			return nil, fmt.Errorf("first dial of site %d: %w", i, err)
		}
	}
	return svc, nil
}

// shipCertifier is the snapshot-shipping gate for a workload at rung:
// the product's Q1Q2 gate, or the same check at the weaker rung the
// workload's history is claimed at.
func shipCertifier(rung string) func(history.History) error {
	if rung == "Q1Q2" {
		return relaxd.PQCertify()
	}
	return func(h history.History) error {
		if v := relaxcheck.Certify(core.TaxiSimpleLattice(), nil, rung, h); v != nil {
			return fmt.Errorf("%w: %s", relaxd.ErrCorrupt, v.Error())
		}
		return nil
	}
}

// writePreload makes entries durable in the store under dir through
// the store's public write path.
func writePreload(dir string, opts relaxd.StoreOptions, entries []quorum.Entry) error {
	st, _, _, err := relaxd.OpenStore(dir, opts)
	if err != nil {
		return err
	}
	var target int64
	for len(entries) > 0 {
		n := min(preloadChunk, len(entries))
		if target, err = st.AppendBatch(entries[:n]); err != nil {
			st.Close()
			return err
		}
		entries = entries[n:]
	}
	if err := st.WaitDurable(target); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// close stops the transport and every live site.
func (s *service) close() {
	if s.tr != nil {
		s.tr.Close()
	}
	for i, srv := range s.servers {
		if srv != nil {
			srv.Close()
		} else if s.replicas[i] != nil {
			s.replicas[i].Close()
		}
	}
}

// kill hard-stops a site: listener down, replica crashed unflushed.
func (s *service) kill(site int) {
	s.servers[site].Kill()
	s.servers[site] = nil
}

// restart brings a killed site back on its old address. With wipe set
// its store is destroyed first, so the site rebuilds from a peer by
// snapshot shipping before it listens again; the time from the restart
// to listening again is then a rejoin.
func (s *service) restart(site int, wipe bool, st *restartStats) error {
	r := s.replicas[site]
	if wipe {
		if err := os.RemoveAll(siteDir(s.root, site)); err != nil {
			return err
		}
	}
	start := time.Now()
	info, err := r.Restart()
	if err != nil {
		return fmt.Errorf("restart site %d: %w", site, err)
	}
	if !wipe {
		st.restarts = append(st.restarts, time.Since(start))
		st.recovered = append(st.recovered, info.SnapshotEntries+info.WALEntries)
	} else {
		jtr := relaxd.NewPooledTransport(s.addrs, 0)
		jstart := time.Now()
		ji, err := r.JoinFrom(relaxd.JoinConfig{Transport: jtr, Certify: s.certify})
		jtr.Close()
		if err != nil {
			return fmt.Errorf("join site %d: %w", site, err)
		}
		st.joins = append(st.joins, time.Since(jstart))
		st.shipped = append(st.shipped, ji.SnapshotEntries+ji.WALEntries)
	}
	srv, err := relaxd.ListenSite(s.addrs[site], r)
	if err != nil {
		return fmt.Errorf("re-listen site %d: %w", site, err)
	}
	s.servers[site] = srv
	if wipe {
		st.rejoins = append(st.rejoins, time.Since(start))
	}
	return nil
}

// probeRejoins restarts every site from its own store and then wipes
// and rejoins it, one site at a time on a quiet service — the rejoin
// measurement of workloads whose load kills no site.
func (s *service) probeRejoins(st *restartStats) error {
	for site := range s.replicas {
		for _, wipe := range []bool{false, true} {
			s.kill(site)
			if err := s.restart(site, wipe, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergedLog merges every live site's resident log.
func (s *service) mergedLog() quorum.Log {
	logs := make([]quorum.Log, 0, len(s.replicas))
	for i, r := range s.replicas {
		if s.servers[i] != nil {
			logs = append(logs, r.Log())
		}
	}
	return quorum.Merge(logs...)
}
