package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	spur "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/expstore"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/server"
	"repro/pkg/client"
)

// The service-fleet workload: fleetNodes spurd nodes in this process, each
// behind a real loopback listener, replicating every result twice. All load
// enters through node 0 with pkg/client, so a request whose key node 0 does
// not hold is proxied to the key's owner — about half of them. The result
// stores are in memory: on a shared host, fsync latency swings from run to
// run by more than every code path the workload measures.
//
// The traffic is cmd/spurload's default load, the one the cluster drill in
// EXPERIMENTS.md runs: kinds drawn run=8, sweep=1, tables=1, spurload's
// request shapes at its 20k-reference budget, 8 seeds per kind, and only
// its cheap tables (2.1, 3.1, 3.2). Sweeps and tables are always store
// hits of the set warmed at set-up; runs are hits too, except that every
// coldEvery-th run of a client is a cold compute on a fresh seed.
const (
	fleetNodes       = 4
	fleetReplication = 2
	fleetSetupRounds = 15
	// mixRun, mixSweep and mixTables are spurload's default -mix weights.
	mixRun, mixSweep, mixTables = 8, 1, 1
	// loadRefs and loadSeeds are spurload's default -refs and -seeds.
	loadRefs  = 20_000
	loadSeeds = 8
	// coldEvery: one run in ten is cold, the cold share of runs in
	// spurload's default schedule (-n 100 -seeds 8 -seed 1), where 8 of
	// its 78 runs are the first request of their key.
	coldEvery = 10
	// rssRequests is the request count at which the fleet's peak resident
	// set is read. Every cold run leaves its result in two in-memory
	// stores, so the peak grows with the requests served; read at the end
	// of the window, it would follow the host's speed.
	rssRequests = 20_000
)

// loadTables are spurload's cheap table artifacts.
var loadTables = []string{"2.1", "3.1", "3.2"}

// request is one fleet request and how to recompute its answer locally.
type request struct {
	kind  string // "run", "sweep" or "tables"
	run   client.RunRequest
	sweep client.SweepRequest
	table string
	query client.TablesQuery
	// local is whether the entry node holds the result itself (a
	// replica) rather than proxying to the key's owner.
	local bool
}

// key is the request's content address, computed as spurd computes it.
func (r request) key() (string, error) {
	var k expstore.Key
	var err error
	switch r.kind {
	case "run":
		k, err = expstore.KeyOf(spur.Version, "run", r.run)
	case "sweep":
		kr := r.sweep
		kr.Format = ""
		k, err = expstore.KeyOf(spur.Version, "sweep", kr)
	default:
		k, err = expstore.KeyOf(spur.Version, "tables/"+r.table, r.query)
	}
	return string(k), err
}

// warmSet is the stored results every hit is drawn from, in spurload's
// shapes: loadSeeds runs, loadSeeds sweeps, and each cheap table at
// loadSeeds seeds, so hit bodies range from a few hundred bytes to several
// KB. Exactly half of each kind is held by the entry node and half
// proxied, so the proxied share of the hits does not depend on the seed or
// on which ports the nodes got: each item's seed is redrawn until its key
// lands as wanted on the fleet's ring.
func warmSet(seed uint64, ring *cluster.Ring, entry string) ([]request, error) {
	var set []request
	place := func(local bool, attempt func(a uint64) request) error {
		for a := uint64(0); a < 1000; a++ {
			r := attempt(a)
			r.local = local
			if err := r.normalize(); err != nil {
				return err
			}
			k, err := r.key()
			if err != nil {
				return err
			}
			if ring.Owns(entry, k, fleetReplication) == local {
				set = append(set, r)
				return nil
			}
		}
		return fmt.Errorf("no seed places warm item %d as wanted", len(set))
	}
	for i := 0; i < loadSeeds; i++ {
		err := place(i < loadSeeds/2, func(a uint64) request {
			return runRequest(parallel.DeriveSeed(seed, 0x7761726d, uint64(i), a)) // "warm"
		})
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < loadSeeds; i++ {
		err := place(i < loadSeeds/2, func(a uint64) request {
			return request{kind: "sweep", sweep: client.SweepRequest{
				Workloads: []string{"slc"}, SizesMB: []int{2, 4}, Policies: []string{"MISS"}, Refs: loadRefs,
				Seed: parallel.DeriveSeed(seed, 0x7377, uint64(i), a),
			}}
		})
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < loadSeeds*len(loadTables); i++ {
		err := place(i%loadSeeds < loadSeeds/2, func(a uint64) request {
			return request{kind: "tables", table: loadTables[i/loadSeeds], query: client.TablesQuery{
				Refs: loadRefs, Seed: parallel.DeriveSeed(seed, 0x7462, uint64(i), a), Paper: true}}
		})
		if err != nil {
			return nil, err
		}
	}
	return set, nil
}

// runRequest is spurload's run request for one seed.
func runRequest(seed uint64) request {
	return request{kind: "run", run: client.RunRequest{Workload: client.WorkloadSLC, Refs: loadRefs, Seed: seed}}
}

// coldRequest is client c's i-th request as a cold run: a fresh seed, so
// the owner computes it, stores it and queues its replication.
func coldRequest(seed uint64, c, i int) request {
	r := runRequest(parallel.DeriveSeed(seed, 0x636f6c64, uint64(c), uint64(i))) // "cold"
	if err := r.normalize(); err != nil {
		panic(err) // the request above is fixed; a failure is a bug here
	}
	return r
}

func (r *request) normalize() error {
	switch r.kind {
	case "run":
		return r.run.Normalize()
	case "sweep":
		return r.sweep.Normalize()
	}
	return r.query.Normalize()
}

// answer is a response reduced to the bytes that must match a local
// computation (the Cached flag, which legitimately differs, is checked
// separately).
type answer struct {
	body   [32]byte // SHA-256 of the comparable bytes
	cached bool
}

// nodeKey carries a per-request slot the transport fills with the
// X-Spur-Node header, so the benchmark sees which node answered.
type nodeKey struct{}

type nodeRecorder struct{ base http.RoundTripper }

func (n nodeRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := n.base.RoundTrip(r)
	if err == nil {
		if slot, ok := r.Context().Value(nodeKey{}).(*string); ok {
			*slot = resp.Header.Get("X-Spur-Node")
		}
	}
	return resp, err
}

// send issues one request and returns its answer and the answering node.
func send(ctx context.Context, c *client.Client, r request) (answer, string, error) {
	var node string
	ctx = context.WithValue(ctx, nodeKey{}, &node)
	switch r.kind {
	case "run":
		resp, err := c.Run(ctx, r.run)
		if err != nil {
			return answer{}, node, err
		}
		cached := resp.Cached
		resp.Cached = false
		b, err := json.Marshal(resp)
		return answer{sha256.Sum256(b), cached}, node, err
	case "sweep":
		body, meta, err := c.Sweep(ctx, r.sweep)
		return answer{sha256.Sum256(body), meta.Cached}, node, err
	}
	resp, err := c.Tables(ctx, r.table, r.query)
	if err != nil {
		return answer{}, node, err
	}
	b, err := json.Marshal(resp.Docs)
	return answer{sha256.Sum256(b), resp.Cached}, node, err
}

// local computes r's answer without the service, the way spurd does, and
// returns its comparable digest and the bytes the store holds for it.
func local(r request) ([32]byte, []byte, error) {
	switch r.kind {
	case "run":
		res, fail, err := localRun(r.run)
		if err != nil {
			return [32]byte{}, nil, err
		}
		key, err := expstore.KeyOf(spur.Version, "run", r.run)
		if err != nil {
			return [32]byte{}, nil, err
		}
		b, err := json.Marshal(client.RunResponse{Key: string(key), Result: res, Failure: fail})
		if err != nil {
			return [32]byte{}, nil, err
		}
		stored, err := json.Marshal(struct {
			Result machine.Result `json:"result"`
		}{res})
		return sha256.Sum256(b), stored, err
	case "sweep":
		opts := spur.MemorySweepOptions{SizesMB: r.sweep.SizesMB, Refs: r.sweep.Refs, Seed: r.sweep.Seed,
			Reps: r.sweep.Reps, Parallel: 1}
		for _, w := range r.sweep.Workloads {
			opts.Workloads = append(opts.Workloads, core.WorkloadName(w))
		}
		for _, p := range r.sweep.Policies {
			pol, err := core.ParseRefPolicy(p)
			if err != nil {
				return [32]byte{}, nil, err
			}
			opts.Policies = append(opts.Policies, pol)
		}
		rows := spur.MemorySweep(opts)
		stored, err := json.Marshal(rows)
		return sha256.Sum256([]byte(spur.MemorySweepCSV(rows))), stored, err
	}
	docs, err := localTables(r.table, r.query)
	if err != nil {
		return [32]byte{}, nil, err
	}
	stored, err := json.Marshal(docs)
	if err != nil {
		return [32]byte{}, nil, err
	}
	// The wire form is client.Doc; round-trip so both sides marshal alike.
	var wire []client.Doc
	if err := json.Unmarshal(stored, &wire); err != nil {
		return [32]byte{}, nil, err
	}
	b, err := json.Marshal(wire)
	return sha256.Sum256(b), stored, err
}

// runCfg converts a normalized run request the way spurd does.
func runCfg(req client.RunRequest) (machine.Config, error) {
	cfg := spur.DefaultConfig()
	cfg.MemoryBytes = core.MiB(req.MemMB)
	cfg.CacheBytes = req.CacheKB << 10
	cfg.TotalRefs = req.Refs
	cfg.Seed = req.Seed
	var err error
	if cfg.Dirty, err = core.ParseDirtyPolicy(req.Dirty); err != nil {
		return cfg, err
	}
	cfg.Ref, err = core.ParseRefPolicy(req.Ref)
	return cfg, err
}

func runSpec(req client.RunRequest) spur.Spec {
	if req.Workload == client.WorkloadW1 {
		return spur.Workload1()
	}
	return spur.SLC()
}

func localRun(req client.RunRequest) (machine.Result, *machine.RunFailure, error) {
	cfg, err := runCfg(req)
	if err != nil {
		return machine.Result{}, nil, err
	}
	res, fail := spur.RunHardened(cfg, runSpec(req), spur.RunOptions{})
	return res, fail, nil
}

func localTables(id string, q client.TablesQuery) ([]report.Doc, error) {
	switch id {
	case "2.1":
		return []report.Doc{spur.Table21().Doc()}, nil
	case "3.1":
		return []report.Doc{spur.Table31().Doc()}, nil
	case "3.2":
		return []report.Doc{spur.Table32().Doc()}, nil
	}
	return nil, fmt.Errorf("no local rendering for table %s", id)
}

// fleet is the running nodes.
type fleet struct {
	urls    []string
	servers []*server.Server
	https   []*http.Server
	wg      sync.WaitGroup
}

func startFleet() (*fleet, error) {
	f := &fleet{}
	var lns []net.Listener
	for i := 0; i < fleetNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		srv, err := server.New(server.Config{Self: f.urls[i], Peers: f.urls, Replication: fleetReplication})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.stop()
			return nil, err
		}
		hs := &http.Server{Handler: srv}
		f.servers = append(f.servers, srv)
		f.https = append(f.https, hs)
		f.wg.Add(1)
		go func(ln net.Listener) {
			defer f.wg.Done()
			_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
		}(ln)
	}
	return f, nil
}

// stop drains every node, waits for the serving goroutines and closes the
// servers (stopping their outbox senders).
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	for _, hs := range f.https {
		if err := hs.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	f.wg.Wait()
	for _, s := range f.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// health sums the nodes' /healthz counters.
type health struct {
	hits, misses, rejected, deduped float64
	pending                         int
}

func (f *fleet) health(ctx context.Context) (health, error) {
	var h health
	for _, u := range f.urls {
		hz, err := client.New(u).Health(ctx)
		if err != nil {
			return h, err
		}
		h.hits += float64(hz.Store.Hits())
		h.misses += float64(hz.Store.Misses)
		h.rejected += float64(hz.Queue.Rejected)
		h.deduped += float64(hz.Queue.Deduped)
		if hz.Cluster != nil {
			h.pending += hz.Cluster.Outbox.Pending
		}
	}
	return h, nil
}

// newClient returns a non-retrying client for the entry node (a failed or
// refused request counts as failed instead of being hidden by a retry) and
// its transport, whose idle connections the caller closes.
func newClient(url string, width int) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * width}
	c := client.New(url)
	c.HTTPClient = &http.Client{Transport: nodeRecorder{tr}}
	c.Retries = -1
	return c, tr
}

// setupFleet starts the nodes, places the warm set on their ring and warms
// the store through the entry node.
func setupFleet(cfg runConfig) (*fleet, []request, error) {
	f, err := startFleet()
	if err != nil {
		return nil, nil, err
	}
	ring, err := cluster.NewRing(f.urls, 0)
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	warm, err := warmSet(cfg.Seed, ring, f.urls[0])
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	c, tr := newClient(f.urls[0], cfg.Workers)
	defer tr.CloseIdleConnections()
	errs := make([]error, len(warm))
	_ = parallel.ForEach(len(warm), parallel.Options{Workers: cfg.Workers}, func(i int) {
		_, _, errs[i] = send(context.Background(), c, warm[i])
	})
	for i, err := range errs {
		if err != nil {
			f.stop()
			return nil, nil, fmt.Errorf("warming %s %d: %w", warm[i].kind, i, err)
		}
	}
	return f, warm, nil
}

// coldSample is one cold run as the load saw it, kept small: the request
// is rebuilt from (client, index) when it is verified.
type coldSample struct {
	client, index int32
	lat           float64 // ms
	proxied       bool
	ans           answer
}

func (c coldSample) req(seed uint64) request {
	return coldRequest(seed, int(c.client), int(c.index))
}

// loadStats is what the closed loop measured. Hits are checked as they
// arrive against the warm set's local answers, so only their latencies are
// kept: the benchmark's own memory grows by one number per request, not by
// a response per request.
type loadStats struct {
	localHits, proxiedHits []float64 // ms
	colds                  []coldSample
	requests, failed       int
	bad                    int    // hits that failed a check
	why                    string // the first failed check
	// window is the summed time of the slices, calibrations excluded.
	window float64
	// perSlice is each slice's seconds per 100 requests.
	perSlice []float64
	// rssMiB is the peak resident set once rssRequests requests were
	// served, or at the end if fewer were.
	rssMiB float64
	// busy is the summed latency of every request, in ms: the clients'
	// time, of which the cold computes' share is reported.
	busy float64
}

func (l *loadStats) merge(o loadStats) {
	l.localHits = append(l.localHits, o.localHits...)
	l.proxiedHits = append(l.proxiedHits, o.proxiedHits...)
	l.colds = append(l.colds, o.colds...)
	l.requests += o.requests
	l.failed += o.failed
	l.busy += o.busy
	if l.why == "" {
		l.why = o.why
	}
	l.bad += o.bad
}

// fleetSlice is how long the clients run between two calibrations.
const fleetSlice = calEvery

// load drives the entry node with cfg.Workers closed-loop clients for the
// measuring window: each client sends its next request only after the
// previous reply. Each request's kind is drawn from spurload's mix; every
// coldEvery-th run of a client is a cold run, and every other request a
// hit of the warm set, checked against want: served from the store, routed
// as the ring places them, and byte-identical to the local computation.
// The window is cut into slices of fleetSlice; between two slices the
// clients wait while hs calibrates, and each client resumes where it
// stopped.
func load(cfg runConfig, f *fleet, warm []request, want [][32]byte, hs *hostSpeed) loadStats {
	c, tr := newClient(f.urls[0], cfg.Workers)
	defer tr.CloseIdleConnections()
	picker := newHitPicker(warm)
	type clientState struct {
		rng     *rand.Rand
		runs, i int
	}
	clients := make([]clientState, cfg.Workers)
	for w := range clients {
		clients[w].rng = rand.New(rand.NewSource(int64(parallel.DeriveSeed(cfg.Seed, 0x6c6f6164, uint64(w))))) // "load"
	}
	var all loadStats
	var served atomic.Int64
	var rss atomic.Value
	rss.Store(0.0)
	end := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for time.Now().Before(end) {
		deadline := time.Now().Add(fleetSlice)
		if deadline.After(end) {
			deadline = end
		}
		per := make([]loadStats, cfg.Workers)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st, cs := &per[w], &clients[w]
				for ; time.Now().Before(deadline); cs.i++ {
					kind := picker.kind(cs.rng)
					if kind == "run" {
						cs.runs++
					}
					cold := kind == "run" && cs.runs%coldEvery == 0
					item := -1
					var r request
					if cold {
						r = coldRequest(cfg.Seed, w, cs.i)
					} else {
						item = picker.pick(cs.rng, kind)
						r = warm[item]
					}
					t := time.Now()
					ans, node, err := send(context.Background(), c, r)
					lat := float64(time.Since(t)) / 1e6
					proxied := node != f.urls[0]
					if served.Add(1) == rssRequests {
						rss.Store(maxRSSMiB())
					}
					st.requests++
					st.busy += lat
					switch {
					case err != nil:
						st.failed++
						if st.why == "" {
							st.why = err.Error()
						}
					case cold:
						st.colds = append(st.colds, coldSample{int32(w), int32(cs.i), lat, proxied, ans})
					default:
						if bad := checkHit(warm[item], ans, want[item], proxied); bad != "" {
							st.bad++
							if st.why == "" {
								st.why = fmt.Sprintf("hit of warm %s %d %s", r.kind, item, bad)
							}
						}
						if proxied {
							st.proxiedHits = append(st.proxiedHits, lat)
						} else {
							st.localHits = append(st.localHits, lat)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		window := secs(time.Since(start))
		n := all.requests
		for _, p := range per {
			all.merge(p)
		}
		if n = all.requests - n; n > 0 {
			all.perSlice = append(all.perSlice, 100*window/float64(n))
		}
		all.window += window
		hs.tick()
	}
	all.rssMiB = rss.Load().(float64)
	if all.rssMiB == 0 { // fewer than rssRequests requests in the window
		all.rssMiB = maxRSSMiB()
	}
	return all
}

// checkHit returns why a hit's answer is wrong, or "".
func checkHit(r request, ans answer, want [32]byte, proxied bool) string {
	switch {
	case !ans.cached:
		return "was not served from the store"
	case ans.body != want:
		return "differs from its local computation"
	case proxied == r.local:
		return fmt.Sprintf("was routed against the ring (proxied=%v)", proxied)
	}
	return ""
}

// hitPicker draws request kinds by spurload's mix weights and warm items
// of a kind uniformly.
type hitPicker map[string][]int

func newHitPicker(warm []request) hitPicker {
	p := hitPicker{}
	for i, r := range warm {
		p[r.kind] = append(p[r.kind], i)
	}
	return p
}

func (p hitPicker) kind(rng *rand.Rand) string {
	switch x := rng.Intn(mixRun + mixSweep + mixTables); {
	case x < mixRun:
		return "run"
	case x < mixRun+mixSweep:
		return "sweep"
	}
	return "tables"
}

func (p hitPicker) pick(rng *rand.Rand, kind string) int {
	items := p[kind]
	return items[rng.Intn(len(items))]
}

// localAnswers computes every warm item without the service: the digest a
// hit must match and the bytes the store holds for it.
func localAnswers(warm []request, workers int) ([][32]byte, [][]byte, error) {
	want := make([][32]byte, len(warm))
	stored := make([][]byte, len(warm))
	errs := make([]error, len(warm))
	_ = parallel.ForEach(len(warm), parallel.Options{Workers: workers}, func(i int) {
		want[i], stored[i], errs[i] = local(warm[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("local %s %d: %w", warm[i].kind, i, err)
		}
	}
	return want, stored, nil
}

// verifyColds recomputes every cold run locally: each must have been
// computed, not served from the store, and match byte for byte.
func verifyColds(res *result, colds []coldSample, seed uint64, workers int) {
	var mu sync.Mutex
	_ = parallel.ForEach(len(colds), parallel.Options{Workers: workers}, func(j int) {
		c := colds[j]
		r := c.req(seed)
		got, _, err := local(r)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			res.fail("local cold run: %v", err)
		case c.ans.cached:
			res.fail("cold run seed %d was served from the store", r.run.Seed)
		case got != c.ans.body:
			res.fail("cold run seed %d differs from its local computation", r.run.Seed)
		}
	})
}

func runFleet(cfg runConfig) (*result, error) {
	res := &result{Correct: true, Samples: map[string]int{"setup_rounds": fleetSetupRounds, "nodes": fleetNodes}}
	hs := newHostSpeed(cfg.Workers)
	var setups []float64
	var f *fleet
	var warm []request
	for i := 0; i < fleetSetupRounds; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if f, warm, err = setupFleet(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, secs(time.Since(t)))
		hs.tick()
	}
	fail := func(err error) (*result, error) {
		f.stop()
		return nil, err
	}
	want, stored, err := localAnswers(warm, cfg.Workers)
	if err != nil {
		return fail(err)
	}
	ctx := context.Background()
	before, err := f.health(ctx)
	if err != nil {
		return fail(err)
	}
	ls := load(cfg, f, warm, want, hs)
	after, err := f.health(ctx)
	if err != nil {
		return fail(err)
	}
	drainStart := time.Now()
	pending := after
	for pending.pending > 0 && time.Since(drainStart) < 30*time.Second {
		time.Sleep(2 * time.Millisecond)
		if pending, err = f.health(ctx); err != nil {
			return fail(err)
		}
	}
	drain := secs(time.Since(drainStart))
	if pending.pending > 0 {
		res.fail("replication outbox still holds %d intents 30s after the load", pending.pending)
	}

	res.Attempted, res.Failed = ls.requests, ls.failed
	if ls.failed > 0 {
		res.fail("%d of %d requests failed: %s", ls.failed, ls.requests, ls.why)
	}
	if ls.bad > 0 {
		res.fail("%d hits failed their check: %s", ls.bad, ls.why)
	}
	hits := append(append([]float64(nil), ls.localHits...), ls.proxiedHits...)
	res.Samples["requests"] = ls.requests
	res.Samples["hits"] = len(hits)
	res.Samples["local_hits"] = len(ls.localHits)
	res.Samples["proxied_hits"] = len(ls.proxiedHits)
	res.Samples["colds"] = len(ls.colds)

	verifyColds(res, ls.colds, cfg.Seed, cfg.Workers)
	reqPerS := float64(ls.requests) / ls.window
	var coldLat, coldRate []float64
	for _, c := range ls.colds {
		coldLat = append(coldLat, c.lat)
		coldRate = append(coldRate, loadRefs/(c.lat/1e3))
	}
	if !cfg.Trace {
		err := f.stop()
		res.Samples["slices"] = len(ls.perSlice)
		reportTimes(res, hs, median(setups), median(ls.perSlice), median(coldRate), ls.rssMiB)
		return res, err
	}

	fl := fleetLayers{reqPerS: reqPerS, coldTimeFrac: sum(coldLat) / ls.busy}
	var pctErr error
	pct := func(xs []float64, p float64) float64 {
		v, err := percentile(xs, p)
		if err != nil && pctErr == nil {
			pctErr = err
		}
		return v
	}
	proxied := len(ls.proxiedHits)
	for _, c := range ls.colds {
		if c.proxied {
			proxied++
		}
	}
	fl.hitP50, fl.hitP99 = pct(hits, 0.5), pct(hits, 0.99)
	fl.proxyHitP50 = pct(ls.proxiedHits, 0.5)
	fl.coldP50, fl.coldP90 = pct(coldLat, 0.5), pct(coldLat, 0.9)
	if pctErr != nil {
		res.fail("too few samples: %v", pctErr)
	}

	fl.hits, fl.misses = after.hits-before.hits, after.misses-before.misses
	fl.rejected, fl.deduped = after.rejected-before.rejected, after.deduped-before.deduped
	fl.proxiedFrac = float64(proxied) / float64(ls.requests)
	fl.proxyHopMs = fl.proxyHitP50 - median(ls.localHits)
	fl.outboxPendingEnd, fl.outboxDrainS = float64(after.pending), drain
	m, err := traceFleet(cfg, f, res, ls.colds, warm, stored, &fl)
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	fl.clientOverheadUs = median(ls.localHits)*1e3 - fl.handlerHitUsP50
	m.fleet = &fl
	m.attempted, m.failed = res.Attempted, res.Failed
	emitLayers(res, m)
	return res, nil
}

// kvStore is the part of expstore.Store the store probe calls; the
// attribution self-test substitutes a slowed store.
type kvStore interface {
	Put(k expstore.Key, data []byte) error
	Get(k expstore.Key) ([]byte, bool)
}

// storeProbe Puts then Gets each payload under fresh keys until there are
// at least 200 of each, returning Put times in ms and Get times in us.
func storeProbe(st kvStore, payloads [][]byte) (puts, gets []float64, err error) {
	for n := 0; len(puts) < 200; n++ {
		for i, p := range payloads {
			k, err := expstore.KeyOf("bench", "probe", [2]int{n, i})
			if err != nil {
				return nil, nil, err
			}
			t := time.Now()
			if err := st.Put(k, p); err != nil {
				return nil, nil, err
			}
			puts = append(puts, float64(time.Since(t))/1e6)
			t = time.Now()
			got, ok := st.Get(k)
			gets = append(gets, float64(time.Since(t))/1e3)
			if !ok || !bytes.Equal(got, p) {
				return nil, nil, fmt.Errorf("store probe: Get did not return the Put payload")
			}
		}
	}
	return puts, gets, nil
}

// traceFleet times the fleet's layers from outside: direct store calls
// with the workload's payloads, the entry node's handler on a hit without
// TCP, and the cold runs both as spurd computes them and through the traced
// drive, whose Results must equal the served ones.
func traceFleet(cfg runConfig, f *fleet, res *result, colds []coldSample, warm []request, stored [][]byte,
	fl *fleetLayers) (layerMetrics, error) {
	var m layerMetrics

	// A store like the nodes': in memory.
	st, err := expstore.Open("", expstore.Options{})
	if err != nil {
		return m, err
	}
	puts, gets, err := storeProbe(st, stored)
	if err != nil {
		return m, err
	}
	fl.putMsP50, fl.getUsP50 = median(puts), median(gets)
	res.Samples["store_probes"] = len(puts)

	// Handler: hits the entry node holds itself, served through
	// Server.ServeHTTP with no TCP.
	var localRuns []int
	for i, r := range warm {
		if r.kind == "run" && r.local {
			localRuns = append(localRuns, i)
		}
	}
	var handler []float64
	for n := 0; len(handler) < 400; n++ {
		body, err := json.Marshal(warm[localRuns[n%len(localRuns)]].run)
		if err != nil {
			return m, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t := time.Now()
		f.servers[0].ServeHTTP(rec, req)
		handler = append(handler, float64(time.Since(t))/1e3)
		if rec.Code != http.StatusOK {
			res.fail("handler probe: status %d", rec.Code)
		}
	}
	fl.handlerHitUsP50 = median(handler)
	res.Samples["handler_probes"] = len(handler)

	// Cold runs: up to 64 of them again through spur.RunHardened, as spurd
	// computes them, and through the traced drive, at the load's width.
	// Each traced Result must reproduce the served response.
	if len(colds) > 64 {
		colds = colds[:64]
	}
	if len(colds) == 0 {
		return m, fmt.Errorf("no cold run completed")
	}
	jobs := make([]cellJob, len(colds))
	for j, c := range colds {
		req := c.req(cfg.Seed).run
		rc, err := runCfg(req)
		if err != nil {
			return m, err
		}
		jobs[j] = cellJob{name: fmt.Sprintf("cold run seed %d", req.Seed), cfg: rc, spec: runSpec(req)}
	}
	l, results, err := splitPass(jobs, cfg.Workers, tracer{})
	if err != nil {
		return m, err
	}
	for j, c := range colds {
		key, err := expstore.KeyOf(spur.Version, "run", c.req(cfg.Seed).run)
		if err != nil {
			return m, err
		}
		b, err := json.Marshal(client.RunResponse{Key: string(key), Result: results[j]})
		if err != nil {
			return m, err
		}
		if sha256.Sum256(b) != c.ans.body {
			res.fail("traced %s differs from the served response", jobs[j].name)
		}
	}
	var computes []float64
	for _, c := range l.cellSecs {
		computes = append(computes, c*1e3)
	}
	fl.computeMsP50 = median(computes)
	res.Samples["traced_colds"] = len(colds)
	m.overhead = l.traced/l.cells - 1
	m.split = l.perCell(len(colds))
	return m, nil
}
