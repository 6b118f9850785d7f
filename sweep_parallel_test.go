package spur

// Determinism tests for the parallel experiment engine: a sweep at -par N
// must be byte-identical to the serial sweep for the same seed, including
// its quarantine decisions, and concurrent quarantined cells must write
// their repro bundles race-free.

import (
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func sweepOptsForDeterminism(par int, dir string) MemorySweepOptions {
	return MemorySweepOptions{
		SizesMB:     []int{5, 6},
		Workloads:   []core.WorkloadName{core.SLC},
		Refs:        200_000,
		Seed:        11,
		Reps:        2,
		Parallel:    par,
		ArtifactDir: dir,
		configure: func(cfg *Config, wl core.WorkloadName, memMB int, pol RefPolicy) {
			// Quarantine every repetition of two cells: the 5 MB REF and
			// NONE cells fail their page-in I/O permanently.
			if memMB == 5 && pol != RefMISS {
				cfg.Faults = []FaultPlan{{Kind: FaultPageInIO, Every: 1}}
			}
		},
	}
}

// TestMemorySweepParallelMatchesSerial is the engine's core guarantee:
// identical CSV bytes and identical quarantine decisions at any -par.
func TestMemorySweepParallelMatchesSerial(t *testing.T) {
	serialDir, parDir := t.TempDir(), t.TempDir()
	serial := MemorySweep(sweepOptsForDeterminism(1, serialDir))
	par := MemorySweep(sweepOptsForDeterminism(4, parDir))

	if got, want := MemorySweepCSV(par), MemorySweepCSV(serial); got != want {
		t.Errorf("parallel CSV differs from serial:\n--- serial ---\n%s--- par=4 ---\n%s", want, got)
	}
	if len(par) != len(serial) {
		t.Fatalf("row counts differ: %d vs %d", len(par), len(serial))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		for rep := range s.Reps {
			sf, pf := s.Reps[rep].Failure, p.Reps[rep].Failure
			if (sf == nil) != (pf == nil) {
				t.Fatalf("%s@%dMB/%s rep %d: quarantine decisions diverged (%v vs %v)",
					s.Workload, s.MemMB, s.Policy, rep, sf, pf)
			}
			if sf != nil && sf.Kind != pf.Kind {
				t.Errorf("%s@%dMB/%s rep %d: failure kind %s vs %s",
					s.Workload, s.MemMB, s.Policy, rep, sf.Kind, pf.Kind)
			}
			if s.Reps[rep].Seed != p.Reps[rep].Seed {
				t.Errorf("rep seeds diverged: %d vs %d", s.Reps[rep].Seed, p.Reps[rep].Seed)
			}
			if !reflect.DeepEqual(s.Reps[rep].Result.Events, p.Reps[rep].Result.Events) {
				t.Errorf("%s@%dMB/%s rep %d: events diverged",
					s.Workload, s.MemMB, s.Policy, rep)
			}
		}
	}

	// Both runs quarantined the same two cells (every rep of each), and
	// each quarantined rep wrote exactly one repro bundle — concurrently,
	// without clobbering (the per-rep derived seed is in the filename, and
	// bundle creation is O_EXCL).
	for _, dir := range []string{serialDir, parDir} {
		bundles, _ := filepath.Glob(filepath.Join(dir, "runfailure-*.json"))
		if len(bundles) != 4 {
			t.Errorf("%d bundles in %s, want 4 (2 cells x 2 reps)", len(bundles), dir)
		}
	}
	if bad := SweepFailures(par); len(bad) != 2 {
		t.Errorf("quarantined %d cells, want 2", len(bad))
	}
	for _, r := range par {
		broken := r.MemMB == 5 && r.Policy != RefMISS
		for rep, rr := range r.Reps {
			if (rr.Failure != nil) != broken {
				t.Errorf("%s@%dMB/%s rep %d: quarantine = %v, want %v",
					r.Workload, r.MemMB, r.Policy, rep, rr.Failure != nil, broken)
			}
			if rr.Failure != nil {
				if rr.Failure.BundlePath == "" {
					t.Error("quarantined rep has no repro bundle")
				} else if _, err := os.Stat(rr.Failure.BundlePath); err != nil {
					t.Errorf("repro bundle missing on disk: %v", err)
				}
			}
		}
		// Clean cells aggregate all reps; broken cells aggregate none.
		wantN := 2
		if broken {
			wantN = 0
		}
		if r.PageIns.N != wantN {
			t.Errorf("%s@%dMB/%s: summary over %d reps, want %d",
				r.Workload, r.MemMB, r.Policy, r.PageIns.N, wantN)
		}
	}
}

// TestTable41ParallelMatchesSerial: the Table 4.1 driver through the same
// engine produces identical rows at any parallelism.
func TestTable41ParallelMatchesSerial(t *testing.T) {
	opts := func(par int) Table41Options {
		return Table41Options{Refs: 300_000, Reps: 2, Seed: 5, SizesMB: []int{5}, Parallel: par}
	}
	serial := Table41(opts(1))
	par := Table41(opts(4))
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("Table41 rows diverged between par=1 and par=4:\n%+v\n%+v", serial, par)
	}
}

// TestMemorySweepProgress: the progress callback reports every run exactly
// once, serialized, with a stable total.
func TestMemorySweepProgress(t *testing.T) {
	var calls atomic.Int64
	var lastDone int
	rows := MemorySweep(MemorySweepOptions{
		SizesMB:   []int{5},
		Workloads: []core.WorkloadName{core.SLC},
		Refs:      100_000,
		Reps:      2,
		Parallel:  3,
		Progress: func(done, total int) {
			calls.Add(1)
			if total != 6 { // 3 policies x 2 reps
				t.Errorf("total = %d, want 6", total)
			}
			if done != lastDone+1 { // serialized, strictly increasing
				t.Errorf("done = %d after %d", done, lastDone)
			}
			lastDone = done
		},
	})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if calls.Load() != 6 {
		t.Errorf("%d progress calls, want 6", calls.Load())
	}
}

// TestMemorySweepRepSeedsDistinct: no two (cell, rep) runs of a sweep share
// a workload RNG stream — the per-cell seed bug this PR fixes.
func TestMemorySweepRepSeedsDistinct(t *testing.T) {
	rows := MemorySweep(MemorySweepOptions{
		SizesMB:   []int{5, 6},
		Workloads: []core.WorkloadName{core.SLC, core.Workload1},
		Refs:      50_000,
		Reps:      2,
	})
	seen := map[uint64]string{}
	for _, r := range rows {
		for rep, rr := range r.Reps {
			if rr.Seed == 0 {
				t.Fatalf("%s@%dMB/%s rep %d: zero seed", r.Workload, r.MemMB, r.Policy, rep)
			}
			if prev, dup := seen[rr.Seed]; dup {
				t.Errorf("seed %d shared by %s and %s@%dMB/%s rep %d",
					rr.Seed, prev, r.Workload, r.MemMB, r.Policy, rep)
			}
			seen[rr.Seed] = string(r.Workload)
		}
	}
}
