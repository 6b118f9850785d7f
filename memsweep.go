package spur

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
)

// SweepRep is one repetition of a sweep cell: its derived workload seed and
// the (possibly quarantined) hardened-run outcome.
type SweepRep struct {
	Seed   uint64
	Result Result
	// Failure is non-nil when this repetition was quarantined: its run
	// crashed or breached an invariant. Result then holds whatever
	// completed before the failure.
	Failure *RunFailure
}

// MemorySweepRow is one point of the memory-size study: a workload at one
// memory size under one reference-bit policy, measured over Reps
// repetitions with per-repetition derived seeds.
type MemorySweepRow struct {
	Workload core.WorkloadName
	MemMB    int
	Policy   RefPolicy
	// Result and Failure are repetition 0's outcome, the cell's canonical
	// run (charts and the per-run CSV columns read these).
	Result  Result
	Failure *RunFailure
	// Reps holds every repetition in repetition order.
	Reps []SweepRep
	// Summaries over the non-quarantined repetitions (CI95 via the
	// Student-t half-width, as Table 4.1 computes it).
	PageIns   stats.Summary
	Elapsed   stats.Summary // seconds
	RefFaults stats.Summary
	Flushes   stats.Summary
}

// MemorySweepOptions parameterises the memory-size study. The zero value
// runs the full design: both workloads, all reference-bit policies,
// 4-16 MB, one repetition, GOMAXPROCS-wide. Results depend only on the
// experiment knobs (never on Parallel, Progress or scheduling), which is
// what lets the spurd daemon memoize sweeps by content address — its wire
// form, repro/pkg/client.SweepRequest, mirrors exactly the result-shaping
// fields here.
type MemorySweepOptions struct {
	// SizesMB defaults to 4..16 MB (the paper sweeps only 5, 6, 8 and
	// closes with "we are conducting further studies to evaluate ...
	// larger memory sizes").
	SizesMB []int
	// Policies defaults to all three reference-bit policies.
	Policies []RefPolicy
	// Workloads defaults to both.
	Workloads []core.WorkloadName
	Refs      int64
	// Seed is the experiment seed. Each (cell, repetition) derives its own
	// workload seed from it via parallel.DeriveSeed, so no two cells share
	// an RNG stream.
	Seed uint64
	// Reps is the number of repetitions per cell (the paper ran five, with
	// a randomized experiment design); 0 means 1.
	Reps int

	// Parallel bounds how many cells run concurrently (1 = serial; <= 0
	// means GOMAXPROCS). Results are byte-identical at any setting: every
	// run's seed depends only on (Seed, cell, rep), and result slots are
	// indexed by cell coordinates, not completion order.
	Parallel int
	// Progress, when set, is called after each run completes with the
	// count done and the total. Calls are serialized.
	Progress func(done, total int)
	// Context, when non-nil, cancels the sweep early; runs not yet
	// started are skipped and their repetitions stay zero-valued.
	Context context.Context

	// Hardening. AuditEvery audits machine invariants every N references
	// of every cell (0 = final audit only); ArtifactDir receives a JSON
	// repro bundle per quarantined run.
	AuditEvery  int64
	ArtifactDir string

	// configure, when set, adjusts each cell's config before it runs; the
	// package's tests use it to schedule fault injection for specific
	// cells. It is not part of the hashable spec.
	configure func(cfg *Config, wl core.WorkloadName, memMB int, pol RefPolicy)
}

func (o *MemorySweepOptions) fill() {
	if len(o.SizesMB) == 0 {
		o.SizesMB = []int{4, 5, 6, 7, 8, 10, 12, 16}
	}
	if len(o.Policies) == 0 {
		o.Policies = RefPolicies
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []core.WorkloadName{core.SLC, core.Workload1}
	}
	if o.Refs == 0 {
		o.Refs = 8_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
}

// MemorySweep runs the paper's closing question — what happens to
// reference-bit maintenance as memories keep growing — as a parameter
// sweep: page-ins and elapsed time for each policy across memory sizes.
// The paper's prediction: the benefit of reference bits "will tend to
// decrease and may eventually become a hindrance".
//
// The sweep follows the paper's experiment design: Reps repetitions per
// cell, executed in a deterministically shuffled order (randomized
// experiment design), each repetition on its own derived seed. Runs are
// dispatched Parallel at a time through the bounded engine; every run stays
// under the hardened runner, so a run that crashes or breaches an
// invariant is quarantined — its repetition carries the
// RunFailure (and repro bundle, if ArtifactDir is set) — while all sibling
// runs complete normally.
func MemorySweep(opts MemorySweepOptions) []MemorySweepRow { return runSweep(opts, nil) }

// runSweep is MemorySweep with an optional checkpoint sink.
func runSweep(opts MemorySweepOptions, sink *ckptSink) []MemorySweepRow {
	opts.fill()
	cells := sweepCells(opts)
	p := plan{
		cells: make([]planCell, len(cells)), reps: opts.Reps, seed: opts.Seed,
		run:      RunOptions{AuditEvery: opts.AuditEvery, ArtifactDir: opts.ArtifactDir},
		parallel: opts.Parallel, progress: opts.Progress, ctx: opts.Context, sink: sink,
	}
	for i, c := range cells {
		cfg := DefaultConfig()
		cfg.MemoryBytes = core.MiB(c.mb)
		cfg.TotalRefs = opts.Refs
		cfg.Ref = c.pol
		if opts.configure != nil {
			opts.configure(&cfg, c.wl, c.mb, c.pol)
		}
		p.cells[i] = planCell{cfg, workloadSpec(c.wl)}
	}

	rows := make([]MemorySweepRow, len(cells))
	for i, reps := range p.execute() {
		c := cells[i]
		r := MemorySweepRow{
			Workload: c.wl, MemMB: c.mb, Policy: c.pol,
			Result: reps[0].Result, Failure: reps[0].Failure, Reps: reps,
		}
		var pageIns, elapsed, refFaults, flushes []float64
		for _, rep := range reps {
			if rep.Failure != nil {
				continue
			}
			ev := rep.Result.Events
			pageIns = append(pageIns, float64(ev.PageIns))
			elapsed = append(elapsed, rep.Result.ElapsedSeconds)
			refFaults = append(refFaults, float64(ev.RefFaults))
			flushes = append(flushes, float64(ev.PageFlushes))
		}
		r.PageIns = stats.Summarize(pageIns)
		r.Elapsed = stats.Summarize(elapsed)
		r.RefFaults = stats.Summarize(refFaults)
		r.Flushes = stats.Summarize(flushes)
		rows[i] = r
	}
	return rows
}

// SweepFailures extracts the cells with at least one quarantined
// repetition.
func SweepFailures(rows []MemorySweepRow) []MemorySweepRow {
	var bad []MemorySweepRow
	for _, r := range rows {
		for _, rep := range r.Reps {
			if rep.Failure != nil {
				bad = append(bad, r)
				break
			}
		}
	}
	return bad
}

// MemorySweepChart renders one workload's page-in curves per policy
// (repetition means; cells whose every repetition was quarantined are
// skipped).
func MemorySweepChart(rows []MemorySweepRow, wl core.WorkloadName) string {
	ch := &report.Chart{
		Title:  fmt.Sprintf("Page-ins vs memory size — %s", wl),
		XLabel: "memory (MB)",
		YLabel: "page-ins",
	}
	for _, pol := range RefPolicies {
		var xs, ys []float64
		for _, r := range rows {
			if r.Workload == wl && r.Policy == pol && r.PageIns.N > 0 {
				xs = append(xs, float64(r.MemMB))
				ys = append(ys, r.PageIns.Mean)
			}
		}
		if len(xs) > 0 {
			ch.AddSeries(pol.String(), xs, ys)
		}
	}
	return ch.String()
}

// MemorySweepCSV renders the sweep as CSV for external plotting: the
// canonical (repetition 0) run's raw counts, then the cross-repetition
// mean and 95% confidence half-width columns. The output is deterministic
// for a given seed at any Parallel setting.
func MemorySweepCSV(rows []MemorySweepRow) string {
	s := "workload,mem_mb,policy,page_ins,ref_faults,ref_clears,page_flushes,elapsed_s,cycles," +
		"reps,ok_reps,page_ins_mean,page_ins_ci95,elapsed_mean,elapsed_ci95\n"
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		ev := r.Result.Events
		s += fmt.Sprintf("%s,%d,%s,%d,%d,%d,%d,%.2f,%d,%d,%d,%s,%s,%s,%s\n",
			r.Workload, r.MemMB, r.Policy, ev.PageIns, ev.RefFaults,
			ev.RefClears, ev.PageFlushes, r.Result.ElapsedSeconds, r.Result.Cycles,
			len(r.Reps), r.PageIns.N,
			f(r.PageIns.Mean), f(r.PageIns.CI95()),
			f(r.Elapsed.Mean), f(r.Elapsed.CI95()))
	}
	return s
}
