package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/expstore"
	"repro/internal/journal"
	"repro/pkg/client"
)

// This file makes accepted jobs durable. Every job the daemon admits is
// appended to an fsynced journal (an "accept" record carrying the job's
// kind, store key and normalized spec) before any simulation starts, and a
// "done" record lands once the result is safely in the store. A daemon that
// is killed mid-job therefore restarts knowing exactly which computations it
// owes: RecoverJobs replays the journal and recomputes every accepted,
// un-finished job in the background, filling the store the crashed process
// was about to fill. Because every job is a pure function of its spec, the
// recovered bytes are identical to what the dead daemon would have produced.

// jobJournalKind is the journal.Header.Kind of a spurd job journal.
const jobJournalKind = "spurd-jobs"

// jobRecord is one journal entry: a job acceptance or completion.
type jobRecord struct {
	// Op is "accept" (job admitted, compute about to start) or "done"
	// (result persisted, or deterministically failed — either way there is
	// nothing left to recover).
	Op string `json:"op"`
	// Kind routes recovery: "run", "sweep", or "tables/<id>". Empty for
	// done records.
	Kind string `json:"kind,omitempty"`
	// Key is the job's content address in the result store.
	Key string `json:"key"`
	// Spec is the normalized request, as the handler hashed it. Empty for
	// done records.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// jobLog is the durable accept/done journal plus its live counters.
type jobLog struct {
	mu      sync.Mutex
	w       *journal.Writer // guarded by mu
	pending map[string]bool // guarded by mu: keys accepted but not yet done

	accepted  atomic.Uint64
	completed atomic.Uint64
	recovered atomic.Uint64

	// replayed holds the jobs owed from the previous process, in arrival
	// order. It is written at open time and drained once by RecoverJobs
	// before the listener starts, so it needs no lock.
	replayed []jobRecord
}

// openJobLog opens (or creates) the job journal at path, replaying any
// existing records into the owed-jobs list. A journal written by a
// different code version is set aside (renamed to path+".stale") rather
// than replayed: its keys would never match this version's store addresses.
func openJobLog(path, version string, logf func(string, ...any)) (*jobLog, error) {
	hdr := journal.Header{Kind: jobJournalKind, Version: version}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		w, err := journal.Create(path, hdr)
		if err != nil {
			return nil, err
		}
		return &jobLog{w: w, pending: map[string]bool{}}, nil
	}
	rep, err := journal.Replay(path)
	if err != nil {
		return nil, fmt.Errorf("server: job journal %s: %w", path, err)
	}
	if rep.Header.Kind != jobJournalKind {
		return nil, fmt.Errorf("server: %s is a %q journal, not a job journal", path, rep.Header.Kind)
	}
	if rep.Header.Version != version {
		logf("spurd: job journal %s was written by version %q (this is %q); setting it aside", path, rep.Header.Version, version)
		if err := os.Rename(path, path+".stale"); err != nil {
			return nil, err
		}
		w, err := journal.Create(path, hdr)
		if err != nil {
			return nil, err
		}
		return &jobLog{w: w, pending: map[string]bool{}}, nil
	}

	// Replay: a done record settles every prior accept of its key, so a
	// job that was accepted, crashed, re-accepted on recovery and finished
	// stays settled. Order is preserved for the survivors.
	byKey := map[string]jobRecord{}
	var order []string
	for i, b := range rep.Entries {
		var r jobRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("server: job journal %s record %d: %w", path, i, err)
		}
		switch r.Op {
		case "accept":
			if _, ok := byKey[r.Key]; !ok {
				order = append(order, r.Key)
			}
			byKey[r.Key] = r
		case "done":
			delete(byKey, r.Key)
		default:
			return nil, fmt.Errorf("server: job journal %s record %d: unknown op %q", path, i, r.Op)
		}
	}
	w, _, err := journal.Open(path)
	if err != nil {
		return nil, err
	}
	l := &jobLog{w: w, pending: map[string]bool{}}
	for _, k := range order {
		if r, ok := byKey[k]; ok {
			l.replayed = append(l.replayed, r)
			l.pending[k] = true
		}
	}
	return l, nil
}

// accept journals a job admission before its computation starts.
func (l *jobLog) accept(kind string, key expstore.Key, spec any) error {
	sb, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	b, err := json.Marshal(jobRecord{Op: "accept", Kind: kind, Key: string(key), Spec: sb})
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Append(b); err != nil {
		return err
	}
	l.accepted.Add(1)
	l.pending[string(key)] = true
	return nil
}

// done journals a job completion: its result is in the store, or it failed
// deterministically (recomputing would fail identically).
func (l *jobLog) done(key expstore.Key) error {
	b, err := json.Marshal(jobRecord{Op: "done", Key: string(key)})
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Append(b); err != nil {
		return err
	}
	l.completed.Add(1)
	delete(l.pending, string(key))
	return nil
}

func (l *jobLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Close()
}

func (l *jobLog) stats() *client.JobsStats {
	l.mu.Lock()
	pending := len(l.pending)
	l.mu.Unlock()
	return &client.JobsStats{
		Journaled: l.accepted.Load(),
		Completed: l.completed.Load(),
		Recovered: l.recovered.Load(),
		Pending:   pending,
	}
}

// RecoverJobs recomputes every job the previous process accepted but never
// finished, in the background (one goroutine, arrival order — recovery must
// not starve live traffic of queue slots). It returns how many jobs are
// owed; WaitJobs blocks until they are settled.
func (s *Server) RecoverJobs() int {
	if s.jobs == nil {
		return 0
	}
	owed := s.jobs.replayed
	s.jobs.replayed = nil
	if len(owed) == 0 {
		return 0
	}
	s.recoverWG.Add(1)
	go func() {
		defer s.recoverWG.Done()
		for _, rec := range owed {
			if err := s.recoverJob(rec); err != nil {
				s.cfg.Logf("spurd: recovering %s job %.12s: %v", rec.Kind, rec.Key, err)
				continue
			}
			s.jobs.recovered.Add(1)
		}
	}()
	return len(owed)
}

// WaitJobs blocks until background job recovery has settled (or ctx
// expires).
func (s *Server) WaitJobs(ctx context.Context) error {
	ch := make(chan struct{})
	go func() {
		s.recoverWG.Wait()
		close(ch)
	}()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// recoverJob replays one journaled accept record through the same memoize
// path a live request takes: if the crashed process managed to persist the
// result, this is a store hit; otherwise it recomputes and persists it.
func (s *Server) recoverJob(rec jobRecord) error {
	key := expstore.Key(rec.Key)
	ctx := context.Background()
	switch {
	case rec.Kind == "run":
		var req client.RunRequest
		if err := json.Unmarshal(rec.Spec, &req); err != nil {
			return err
		}
		_, _, err := s.memoize(ctx, key, rec.Kind, req, s.runJob(key, req))
		return err
	case rec.Kind == "sweep", rec.Kind == "sweep-sampled":
		// The spec's Sample field picks the estimator, as on a live request.
		var req client.SweepRequest
		if err := json.Unmarshal(rec.Spec, &req); err != nil {
			return err
		}
		_, _, err := s.memoize(ctx, key, rec.Kind, req, s.sweepJob(key, req))
		return err
	case strings.HasPrefix(rec.Kind, "tables/"):
		id := strings.TrimPrefix(rec.Kind, "tables/")
		if !client.ValidTableID(id) {
			return fmt.Errorf("unknown table %q", id)
		}
		var q client.TablesQuery
		if err := json.Unmarshal(rec.Spec, &q); err != nil {
			return err
		}
		_, _, err := s.memoize(ctx, key, rec.Kind, q, s.tablesJob(key, id, q))
		return err
	default:
		return fmt.Errorf("unknown job kind %q", rec.Kind)
	}
}
