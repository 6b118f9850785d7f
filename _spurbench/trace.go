package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	spur "repro"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The traced run drives each cell through the layers' public calls from
// here, timing every call, so no tracing code runs inside the program:
//
//	machine.New + workload.NewScript + Pager.Runnable   -> machine.setup_s
//	Script.NextBatch                                     -> workload.gen_s
//	Engine.AccessBatch                                   -> core.access_s
//	machine.Audit                                        -> machine.audit_s
//
// and checks that the cell's Result equals the untraced run's exactly.

// batchSize matches the machine's own run loop (one page of records).
const batchSize = 4096

// batcher and accessor are the two hot-loop calls the traced drive times.
// They are interfaces so the attribution self-test can slow one of them.
type batcher interface{ NextBatch(buf []trace.Rec) int }
type accessor interface{ AccessBatch(recs []trace.Rec) }

// tracer holds optional wrappers around the generation and access layers;
// the zero value drives the program's own objects.
type tracer struct {
	wrapSource func(batcher) batcher
	wrapEngine func(accessor) accessor
}

// span is one timed call, in nanoseconds since the traced pass began. The
// parent of a layer call is its cell's span; a cell's parent is the pass.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// cellTrace is one cell's traced time split.
type cellTrace struct {
	setup, gen, access, audit, total time.Duration
	refs                             int64
	calls                            []span // layer calls; IDs assigned at merge
	cell                             span
}

// cell runs one exact sweep cell through the traced drive and returns its
// Result, which must equal machine.RunSpecHardened's for the same config.
func (tr tracer) cell(cfg machine.Config, spec workload.Spec, origin time.Time) (machine.Result, cellTrace, error) {
	var ct cellTrace
	stamp := func() int64 { return int64(time.Since(origin)) }
	record := func(name string, start int64) int64 {
		end := stamp()
		ct.calls = append(ct.calls, span{Name: name, Start: start, End: end})
		return end
	}
	c0 := stamp()
	m := machine.New(cfg)
	script := workload.NewScript(m, cfg.Seed, spec)
	m.Pager.Runnable = script.Runnable
	t := record("machine.setup", c0)
	ct.setup = time.Duration(t - c0)

	var src batcher = script
	var eng accessor = m.Engine
	if tr.wrapSource != nil {
		src = tr.wrapSource(src)
	}
	if tr.wrapEngine != nil {
		eng = tr.wrapEngine(eng)
	}
	buf := make([]trace.Rec, batchSize)
	for ct.refs < cfg.TotalRefs {
		want := cfg.TotalRefs - ct.refs
		if want > batchSize {
			want = batchSize
		}
		g0 := stamp()
		k := src.NextBatch(buf[:want])
		a0 := record("workload.NextBatch", g0)
		ct.gen += time.Duration(a0 - g0)
		if k == 0 {
			break
		}
		eng.AccessBatch(buf[:k])
		t = record("core.AccessBatch", a0)
		ct.access += time.Duration(t - a0)
		ct.refs += int64(k)
	}
	u0 := stamp()
	err := machine.Audit(m)
	t = record("machine.Audit", u0)
	ct.audit = time.Duration(t - u0)
	ct.total = time.Duration(t - c0)
	ct.cell = span{Name: "machine.cell", Start: c0, End: t}

	res := m.Snapshot()
	// Snapshot's reference count is kept by the machine's own run loops,
	// which the traced drive replaces; the drive counts them itself.
	res.Refs = ct.refs
	return res, ct, err
}

// layerTimes is where a pass's worker-seconds went. The layer calls come
// from the traced drive; cells is the same cells run untraced through
// spur.RunHardened (the program's own run loop), each call timed whole.
type layerTimes struct {
	setup, gen, access, audit float64
	// traced is the traced drive's summed cell time; cells the program's.
	traced, cells float64
}

func (a *layerTimes) add(b layerTimes) {
	a.setup += b.setup
	a.gen += b.gen
	a.access += b.access
	a.audit += b.audit
	a.traced += b.traced
	a.cells += b.cells
}

func (a layerTimes) div(n float64) layerTimes {
	return layerTimes{a.setup / n, a.gen / n, a.access / n, a.audit / n, a.traced / n, a.cells / n}
}

// layerSplit is one pass's per-layer totals plus the simulated counts its
// cells produced (identical on every pass of one seed).
type layerSplit struct {
	layerTimes
	refs     int64
	ev       core.Events
	pager    vm.Stats
	cellSecs []float64 // program per-cell times, for the parallel layer
	wall     float64   // paired pass wall
	busy     float64   // program plus traced time, summed over cells
	spans    []span
}

// perCell divides the split's totals by n cells (the fleet reports one
// cold compute's split).
func (l layerSplit) perCell(n int) layerSplit {
	f := uint64(n)
	l.layerTimes = l.layerTimes.div(float64(n))
	l.refs /= int64(n)
	l.ev = core.Events{Refs: l.ev.Refs / f, Misses: l.ev.Misses / f, Nds: l.ev.Nds / f, Ndm: l.ev.Ndm / f,
		Nzfod: l.ev.Nzfod / f, RefFaults: l.ev.RefFaults / f, PageFlushes: l.ev.PageFlushes / f,
		PageIns: l.ev.PageIns / f, PageOuts: l.ev.PageOuts / f}
	l.pager = vm.Stats{PageIns: l.pager.PageIns / f, PageOuts: l.pager.PageOuts / f,
		ZeroFills: l.pager.ZeroFills / f, Scans: l.pager.Scans / f, Reclaims: l.pager.Reclaims / f}
	return l
}

func addEvents(dst *core.Events, ev core.Events) {
	dst.Refs += ev.Refs
	dst.Misses += ev.Misses
	dst.Nds += ev.Nds
	dst.Ndm += ev.Ndm
	dst.Nzfod += ev.Nzfod
	dst.RefFaults += ev.RefFaults
	dst.PageFlushes += ev.PageFlushes
	dst.PageIns += ev.PageIns
	dst.PageOuts += ev.PageOuts
}

func addPager(dst *vm.Stats, st vm.Stats) {
	dst.PageIns += st.PageIns
	dst.PageOuts += st.PageOuts
	dst.ZeroFills += st.ZeroFills
	dst.Scans += st.Scans
	dst.Reclaims += st.Reclaims
}

// programCell runs a cell exactly as MemorySweep does, through
// spur.RunHardened, timing the whole call.
func programCell(cfg machine.Config, spec workload.Spec) (machine.Result, time.Duration, error) {
	t := time.Now()
	res, fail := spur.RunHardened(cfg, spec, spur.RunOptions{})
	d := time.Since(t)
	if fail != nil {
		return res, d, fail
	}
	return res, d, nil
}

// cellJob is one cell to run and, when known, the Result it must
// reproduce.
type cellJob struct {
	name string
	cfg  machine.Config
	spec workload.Spec
	want *machine.Result
}

// sweepJobs lists every (cell, rep) of an untraced sweep's rows in the
// sweep's own shuffled run order, so stragglers land where they land in
// the untraced sweep. Each job must reproduce its row's Result.
func sweepJobs(opts spur.MemorySweepOptions, rows []spur.MemorySweepRow) []cellJob {
	var jobs []cellJob
	for ci := range rows {
		row := &rows[ci]
		for rep := range row.Reps {
			cfg := spur.DefaultConfig()
			cfg.MemoryBytes = core.MiB(row.MemMB)
			cfg.TotalRefs = opts.Refs
			cfg.Seed = row.Reps[rep].Seed
			cfg.Ref = row.Policy
			jobs = append(jobs, cellJob{
				name: fmt.Sprintf("%s %dMB %s rep %d", row.Workload, row.MemMB, row.Policy, rep),
				cfg:  cfg, spec: specFor(row.Workload), want: &row.Reps[rep].Result,
			})
		}
	}
	stats.Shuffle(jobs, opts.Seed*0x9e3779b9+17)
	return jobs
}

func specFor(wl core.WorkloadName) workload.Spec {
	if wl == core.Workload1 {
		return spur.Workload1()
	}
	return spur.SLC()
}

// pairedCell is one cell run through the program and through the traced
// drive, back to back on one worker.
type pairedCell struct {
	prog   time.Duration
	traced cellTrace
	result machine.Result
	err    error
}

// splitPass runs each job through the program (spur.RunHardened) and,
// right after on the same worker, through the traced drive, which must
// reproduce the program's Result (and the job's, when it has one). Pairing
// the two calls per cell keeps host-speed drift out of the difference
// between them, the run loop's own cost. Even cells run the program first
// and odd cells the traced drive, so neither always finds warmer caches.
// splitPass folds the pairs into a layerSplit and returns the Results.
func splitPass(jobs []cellJob, workers int, tr tracer) (layerSplit, []machine.Result, error) {
	var l layerSplit
	cells := make([]pairedCell, len(jobs))
	origin := time.Now()
	_ = parallel.ForEach(len(jobs), parallel.Options{Workers: workers}, func(i int) {
		j, c := jobs[i], &cells[i]
		var prog machine.Result
		var perr, terr error
		runProg := func() { prog, c.prog, perr = programCell(j.cfg, j.spec) }
		runTraced := func() { c.result, c.traced, terr = tr.cell(j.cfg, j.spec, origin) }
		if i%2 == 0 {
			runProg()
			runTraced()
		} else {
			runTraced()
			runProg()
		}
		switch {
		case perr != nil:
			c.err = fmt.Errorf("program run: %w", perr)
		case terr != nil:
			c.err = fmt.Errorf("traced drive: %w", terr)
		case j.want != nil && prog != *j.want:
			c.err = fmt.Errorf("program result differs from the untraced sweep's:\n got       %+v\n untraced  %+v", prog, *j.want)
		case c.result != prog:
			c.err = fmt.Errorf("traced result differs from the program's:\n traced   %+v\n program  %+v", c.result, prog)
		}
	})
	l.wall = secs(time.Since(origin))
	results := make([]machine.Result, len(jobs))
	for i, c := range cells {
		if c.err != nil {
			return l, nil, fmt.Errorf("%s: %w", jobs[i].name, c.err)
		}
		ct := c.traced
		l.setup += secs(ct.setup)
		l.gen += secs(ct.gen)
		l.access += secs(ct.access)
		l.audit += secs(ct.audit)
		l.traced += secs(ct.total)
		l.cells += secs(c.prog)
		l.cellSecs = append(l.cellSecs, secs(c.prog))
		l.busy += secs(c.prog) + secs(ct.total)
		l.refs += ct.refs
		addEvents(&l.ev, c.result.Events)
		addPager(&l.pager, c.result.Pager)
		results[i] = c.result
		cellID := len(l.spans) + 1
		ct.cell.ID = cellID
		l.spans = append(l.spans, ct.cell)
		for _, s := range ct.calls {
			s.ID, s.Parent = len(l.spans)+1, cellID
			l.spans = append(l.spans, s)
		}
	}
	return l, results, nil
}

// traceExact runs the sweep once untraced, for its output digest and the
// Results every cell must reproduce, then repeats paired passes over its
// cells for the measuring window and reports the per-layer split of an
// average pass.
func traceExact(cfg runConfig, opts spur.MemorySweepOptions, res *result, tr tracer) error {
	rows, csv, fails := exactSweep(opts)
	res.Attempted += gridCells()
	res.Failed += fails
	checkRecordedDigest(res, cfg.Workload, cfg.Seed, digest(csv))
	if fails > 0 {
		res.fail("%d of %d cell runs were quarantined", fails, gridCells())
		return nil
	}
	jobs := sweepJobs(opts, rows)
	var last layerSplit
	var times layerTimes
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start).Seconds() < cfg.Seconds {
		l, _, err := splitPass(jobs, opts.Parallel, tr)
		res.Attempted += len(jobs)
		if err != nil {
			res.fail("%v", err)
			return nil
		}
		times.add(l.layerTimes)
		last = l
		passes++
	}
	last.layerTimes = times.div(float64(passes))
	res.Samples["passes"] = passes
	res.Samples["traced_cells"] = len(last.cellSecs)
	emitLayers(res, layerMetrics{
		split:     last,
		cellSecs:  last.cellSecs,
		wall:      last.wall,
		busy:      last.busy,
		workers:   opts.Parallel,
		overhead:  times.traced/times.cells - 1,
		attempted: res.Attempted, failed: res.Failed,
	})
	return writeSpans(cfg, last.spans)
}

// sampledLayers is the sampled sweep's traced split per pass.
type sampledLayers struct {
	profile, plan, measure, estimate float64
	// groups is the summed per-group time the four calls fall inside.
	groups    float64
	groupSecs []float64
	wall      float64
	detailed  int64
	spans     []span
}

// tracedSampledPass rebuilds MemorySweepSampled's per-group pipeline from
// the sample package's public calls, timing each, and checks every
// estimate against the untraced sweep's rows.
func tracedSampledPass(opts spur.MemorySweepOptions, rows []spur.SampledRow) (sampledLayers, error) {
	so := sampledOpts()
	nv := len(opts.SizesMB) * len(opts.Policies)
	groups := len(opts.Workloads) * opts.Reps
	type groupTrace struct {
		profile, plan, measure, estimate, total time.Duration
		ests                                    []sample.Estimate
		spans                                   []span
		err                                     error
	}
	gts := make([]groupTrace, groups)
	origin := time.Now()
	_ = parallel.ForEach(groups, parallel.Options{Workers: opts.Parallel}, func(g int) {
		gt := &gts[g]
		wi, rep := g/opts.Reps, g%opts.Reps
		spec := specFor(opts.Workloads[wi])
		// MemorySweepSampled's per-group stream seed ("sampl" salt).
		streamSeed := parallel.DeriveSeed(opts.Seed, 0x73616d706c, uint64(wi), uint64(rep))
		var variants []sample.Variant
		for _, mb := range opts.SizesMB {
			for _, pol := range opts.Policies {
				c := spur.DefaultConfig()
				c.MemoryBytes = core.MiB(mb)
				c.Ref = pol
				variants = append(variants, sample.Variant{Name: fmt.Sprintf("%dMB/%s", mb, pol), Cfg: c})
			}
		}
		timed := func(name string, d *time.Duration, f func()) {
			s := int64(time.Since(origin))
			f()
			e := int64(time.Since(origin))
			*d = time.Duration(e - s)
			gt.spans = append(gt.spans, span{Name: name, Start: s, End: e})
		}
		g0 := time.Now()
		var profile sample.Profile
		var plan sample.Plan
		var measured []sample.Measured
		timed("sample.BuildProfile", &gt.profile, func() {
			profile = sample.BuildProfile(spec, streamSeed, opts.Refs, so.IntervalLen)
		})
		timed("sample.BuildPlan", &gt.plan, func() { plan = sample.BuildPlan(profile, so.K, streamSeed, so.Prefix) })
		timed("sample.Measure", &gt.measure, func() {
			measured, gt.err = sample.Measure(spec, streamSeed, plan, variants,
				sample.MeasureOptions{Warmup: so.Warmup, Kind: "memsweep-sampled", Version: spur.Version})
		})
		if gt.err != nil {
			return
		}
		timed("sample.Estimate", &gt.estimate, func() {
			for vi := range variants {
				gt.ests = append(gt.ests, plan.Estimate(measured[vi], variants[vi].Cfg.Timing, so.Warmup))
			}
		})
		gt.total = time.Since(g0)
	})
	var l sampledLayers
	l.wall = secs(time.Since(origin))
	for g, gt := range gts {
		if gt.err != nil {
			return l, gt.err
		}
		wi, rep := g/opts.Reps, g%opts.Reps
		for vi, est := range gt.ests {
			row := rows[wi*nv+vi]
			if !reflect.DeepEqual(est, row.Reps[rep]) {
				return l, fmt.Errorf("traced %s %dMB %s estimate differs from the untraced sweep", row.Workload, row.MemMB, row.Policy)
			}
			l.detailed += est.SimulatedRefs
		}
		l.profile += secs(gt.profile)
		l.plan += secs(gt.plan)
		l.measure += secs(gt.measure)
		l.estimate += secs(gt.estimate)
		l.groups += secs(gt.total)
		l.groupSecs = append(l.groupSecs, secs(gt.total))
		gid := len(l.spans) + 1
		l.spans = append(l.spans, span{ID: gid, Name: "sample.group", Start: gt.spans[0].Start, End: gt.spans[len(gt.spans)-1].End})
		for _, s := range gt.spans {
			s.ID, s.Parent = len(l.spans)+1, gid
			l.spans = append(l.spans, s)
		}
	}
	return l, nil
}

// generationPass times Script.NextBatch over each group's whole stream on
// its own, the generation work the profile and measure passes each repeat.
func generationPass(opts spur.MemorySweepOptions, wrap func(batcher) batcher) (float64, int64) {
	var mu sync.Mutex
	var total time.Duration
	var refs int64
	_ = parallel.ForEach(len(opts.Workloads), parallel.Options{Workers: opts.Parallel}, func(wi int) {
		streamSeed := parallel.DeriveSeed(opts.Seed, 0x73616d706c, uint64(wi), 0)
		m := machine.New(spur.DefaultConfig())
		var src batcher = workload.NewScript(m, streamSeed, specFor(opts.Workloads[wi]))
		if wrap != nil {
			src = wrap(src)
		}
		buf := make([]trace.Rec, batchSize)
		var d time.Duration
		var n int64
		for n < opts.Refs {
			want := opts.Refs - n
			if want > batchSize {
				want = batchSize
			}
			t := time.Now()
			k := src.NextBatch(buf[:want])
			d += time.Since(t)
			if k == 0 {
				break
			}
			n += int64(k)
		}
		mu.Lock()
		total += d
		refs += n
		mu.Unlock()
	})
	return secs(total), refs
}

func traceSampled(cfg runConfig, opts spur.MemorySweepOptions, res *result) error {
	var untraced, traced []float64
	var last sampledLayers
	var rows []spur.SampledRow
	var tot sampledLayers
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < cfg.Seconds {
		t := time.Now()
		var csv string
		var err error
		if rows, csv, err = sampledSweep(opts); err != nil {
			return err
		}
		untraced = append(untraced, secs(time.Since(t)))
		res.Attempted += gridCells()
		if len(traced) == 0 {
			checkRecordedDigest(res, cfg.Workload, cfg.Seed, digest(csv))
		}
		l, err := tracedSampledPass(opts, rows)
		if err != nil {
			res.fail("%v", err)
			break
		}
		traced = append(traced, l.wall)
		tot.profile += l.profile
		tot.plan += l.plan
		tot.measure += l.measure
		tot.estimate += l.estimate
		tot.groups += l.groups
		last = l
	}
	if len(traced) == 0 {
		return nil
	}
	n := float64(len(traced))
	avg := sampledLayers{profile: tot.profile / n, plan: tot.plan / n, measure: tot.measure / n,
		estimate: tot.estimate / n, groups: tot.groups / n, detailed: last.detailed}
	gen, genRefs := generationPass(opts, nil)
	var ev core.Events
	for _, r := range rows {
		addEvents(&ev, r.Events)
	}
	res.Samples["passes"] = len(traced)
	res.Samples["groups"] = len(last.groupSecs)
	res.Samples["generation_refs"] = int(genRefs)
	emitLayers(res, layerMetrics{
		split:     layerSplit{layerTimes: layerTimes{gen: gen}, ev: ev, pager: vm.Stats{PageIns: ev.PageIns, PageOuts: ev.PageOuts, ZeroFills: ev.Nzfod}},
		genRefs:   genRefs,
		cellSecs:  last.groupSecs,
		wall:      last.wall,
		busy:      sum(last.groupSecs),
		workers:   opts.Parallel,
		overhead:  median(traced)/median(untraced) - 1,
		sampled:   &avg,
		budget:    float64(gridCells()) * float64(opts.Refs),
		attempted: res.Attempted, failed: res.Failed,
	})
	return writeSpans(cfg, last.spans)
}

// writeSpans dumps the last traced pass's spans, kept in memory until now,
// as JSON lines under the checkout's build area.
func writeSpans(cfg runConfig, spans []span) error {
	dir := filepath.Join(cfg.Root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
