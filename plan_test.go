package spur

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// brokenCell makes the 5 MB NOREF cell's backing store fail permanently.
func brokenCell(cfg *Config, wl core.WorkloadName, memMB int, pol RefPolicy) {
	if memMB == 5 && pol == RefNONE {
		cfg.Faults = []FaultPlan{{Kind: FaultPageInIO, Every: 1}}
	}
}

// TestPlanFailureContract is the executor's failure contract. A failing
// cell is quarantined in a sweep: every repetition carries the failure, the
// summaries skip it, and the siblings complete. The same cell on the same
// seed in a Table 3.3-style plan (fixed seed, no quarantine) re-panics in
// the caller with that RunFailure's kind and reason. Both outcomes are
// identical at Parallel 1 and 4.
func TestPlanFailureContract(t *testing.T) {
	sweep := func(par int) []MemorySweepRow {
		rows := MemorySweep(MemorySweepOptions{
			SizesMB: []int{5, 6}, Policies: []RefPolicy{RefMISS, RefNONE},
			Workloads: []core.WorkloadName{core.SLC},
			Refs:      60_000, Seed: 3, Reps: 2, Parallel: par,
			configure: brokenCell,
		})
		// A failure's recovered goroutine stack names the worker it ran
		// on; the row's Failure shares repetition 0's pointer.
		for _, r := range rows {
			for _, rr := range r.Reps {
				if rr.Failure != nil {
					rr.Failure.Stack = ""
				}
			}
		}
		return rows
	}
	rows := sweep(1)
	if par := sweep(4); !reflect.DeepEqual(rows, par) {
		t.Fatalf("sweep rows differ between Parallel 1 and 4:\n%+v\n%+v", rows, par)
	}
	var quarantined SweepRep
	for _, r := range rows {
		broken := r.MemMB == 5 && r.Policy == RefNONE
		for rep, rr := range r.Reps {
			if (rr.Failure != nil) != broken {
				t.Fatalf("%dMB/%s rep %d: quarantined = %v, want %v", r.MemMB, r.Policy, rep, rr.Failure != nil, broken)
			}
			if broken && (rr.Failure.Kind != FailPanic || rr.Failure.Reason == "") {
				t.Errorf("%dMB/%s rep %d: failure %s %q", r.MemMB, r.Policy, rep, rr.Failure.Kind, rr.Failure.Reason)
			}
		}
		if want := map[bool]int{true: 0, false: 2}[broken]; r.PageIns.N != want {
			t.Errorf("%dMB/%s: summary over %d reps, want %d", r.MemMB, r.Policy, r.PageIns.N, want)
		}
		if broken {
			quarantined = r.Reps[0]
		}
	}

	repanic := func(par int) *RunFailure {
		p := plan{seed: quarantined.Seed, fixedSeed: true, parallel: par}
		for _, mb := range []int{5, 6} {
			for _, pol := range []RefPolicy{RefMISS, RefNONE} {
				cfg := DefaultConfig()
				cfg.MemoryBytes = MiB(mb)
				cfg.TotalRefs = 60_000
				cfg.Ref = pol
				brokenCell(&cfg, core.SLC, mb, pol)
				p.cells = append(p.cells, planCell{cfg, SLC()})
			}
		}
		v := func() (v any) {
			defer func() { v = recover() }()
			p.results()
			return nil
		}()
		f, ok := v.(*RunFailure)
		if !ok {
			t.Fatalf("Parallel %d: recovered %v (%T), want a *RunFailure panic", par, v, v)
		}
		return f
	}
	want := quarantined.Failure
	for _, par := range []int{1, 4} {
		f := repanic(par)
		if f.Kind != want.Kind || f.Reason != want.Reason || f.Refs != want.Refs || f.Seed != quarantined.Seed {
			t.Errorf("Parallel %d: re-panicked %v on seed %d, want the quarantined %v on seed %d",
				par, f, f.Seed, want, quarantined.Seed)
		}
	}
}
