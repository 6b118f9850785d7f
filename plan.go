package spur

import (
	"context"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// This file is the one executor every exact experiment driver runs on. A
// driver describes its design as a plan — cells, repetitions, a seed rule
// and an optional checkpoint journal — and gets back every (cell, rep)
// outcome; the sweep, Table 3.3, Table 3.5, Table 4.1 and the cache sweep
// differ only in the cells they list and the rows they build.

// planCell is one cell of an exact plan: a complete machine config (the
// plan's seed rule sets its Seed per repetition) and the workload it runs.
type planCell struct {
	cfg  Config
	spec Spec
}

// plan is an exact experiment design.
type plan struct {
	cells []planCell
	reps  int
	// seed drives the shuffled run order. It is also the seed rule: each
	// run's workload seed is parallel.DeriveSeed(seed, cell, rep), or seed
	// itself when fixedSeed is set (the paper tables that run every cell
	// on one stream seed).
	seed      uint64
	fixedSeed bool
	run       RunOptions

	parallel int
	progress func(done, total int)
	ctx      context.Context
	// sink, when set, pre-seeds repetitions replayed from a checkpoint
	// journal, skips them, and records every completed run.
	sink *ckptSink
}

// execute runs every (cell, rep) of the plan through the hardened runner
// and returns the outcomes indexed [cell][rep]. Runs are dispatched on the
// bounded parallel engine in a deterministically shuffled order (the
// paper's randomized experiment design); result slots are indexed by
// coordinates and every seed is a pure function of them, so the outcome
// never depends on the order or on Parallel. A cancelled context leaves
// the unvisited slots zero-valued; callers that pass one observe it
// themselves.
func (p plan) execute() [][]SweepRep {
	out := make([][]SweepRep, len(p.cells))
	for i := range out {
		out[i] = make([]SweepRep, p.reps)
	}
	type job struct{ cell, rep int }
	jobs := make([]job, 0, len(p.cells)*p.reps)
	for ci := range p.cells {
		for rep := 0; rep < p.reps; rep++ {
			jobs = append(jobs, job{ci, rep})
		}
	}
	stats.Shuffle(jobs, p.seed*0x9e3779b9+17)

	popts := parallel.Options{Workers: p.parallel, Context: p.ctx, Progress: p.progress}
	if p.sink != nil {
		for _, e := range p.sink.entries {
			out[e.Cell][e.Rep] = SweepRep{Seed: e.Seed, Result: e.Result, Failure: e.Failure}
		}
		popts.Skip = func(i int) bool { return p.sink.done[jobs[i].cell*p.reps+jobs[i].rep] }
	}
	_ = parallel.ForEach(len(jobs), popts, func(i int) {
		j := jobs[i]
		cfg := p.cells[j.cell].cfg
		cfg.Seed = p.seed
		if !p.fixedSeed {
			cfg.Seed = parallel.DeriveSeed(p.seed, uint64(j.cell), uint64(j.rep))
		}
		res, fail := RunHardened(cfg, p.cells[j.cell].spec, p.run)
		// Each job owns its (cell, rep) slot; no two jobs share memory.
		out[j.cell][j.rep] = SweepRep{Seed: cfg.Seed, Result: res, Failure: fail}
		if p.sink != nil {
			p.sink.record(j.cell, j.rep, out[j.cell][j.rep])
		}
	})
	return out
}

// results runs a one-repetition plan for a driver with no quarantine: a
// failed run re-panics here with its RunFailure (kind and reason), as a
// model panic under Run reaches its caller. The first failed cell in cell
// order wins, so the panic does not depend on scheduling.
func (p plan) results() []Result {
	p.reps = 1
	out := p.execute()
	res := make([]Result, len(out))
	for i, reps := range out {
		if f := reps[0].Failure; f != nil {
			panic(f)
		}
		res[i] = reps[0].Result
	}
	return res
}

// workloadSpec maps a paper workload name to its spec.
func workloadSpec(wl core.WorkloadName) Spec {
	if wl == core.Workload1 {
		return Workload1()
	}
	return SLC()
}
