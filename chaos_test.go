package spur

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestSweepQuarantinesBrokenRun: one deliberately-broken cell (its backing
// store fails permanently) is quarantined with a repro bundle while every
// sibling cell of the sweep completes normally.
func TestSweepQuarantinesBrokenRun(t *testing.T) {
	dir := t.TempDir()
	rows := MemorySweep(MemorySweepOptions{
		SizesMB:     []int{5, 6},
		Policies:    []RefPolicy{RefMISS, RefNONE},
		Workloads:   []core.WorkloadName{core.SLC},
		Refs:        120_000,
		Seed:        7,
		ArtifactDir: dir,
		configure: func(cfg *Config, wl core.WorkloadName, memMB int, pol RefPolicy) {
			if memMB == 5 && pol == RefNONE {
				cfg.Faults = []FaultPlan{{Kind: FaultPageInIO, Every: 1}}
			}
		},
	})
	if len(rows) != 4 {
		t.Fatalf("sweep produced %d rows, want 4", len(rows))
	}

	bad := SweepFailures(rows)
	if len(bad) != 1 {
		t.Fatalf("quarantined %d cells, want exactly 1", len(bad))
	}
	q := bad[0]
	if q.MemMB != 5 || q.Policy != RefNONE {
		t.Errorf("wrong cell quarantined: %dMB %s", q.MemMB, q.Policy)
	}
	if q.Failure.Kind != FailPanic {
		t.Errorf("failure kind = %s", q.Failure.Kind)
	}
	if q.Failure.BundlePath == "" {
		t.Error("quarantined cell has no repro bundle")
	} else if _, err := os.Stat(q.Failure.BundlePath); err != nil {
		t.Errorf("repro bundle missing on disk: %v", err)
	}

	// Exactly one bundle was written, and the siblings all finished their
	// full reference budget with real results.
	bundles, _ := filepath.Glob(filepath.Join(dir, "runfailure-*.json"))
	if len(bundles) != 1 {
		t.Errorf("%d bundles on disk, want 1", len(bundles))
	}
	for _, r := range rows {
		if r.Failure != nil {
			continue
		}
		if r.Result.Refs != 120_000 {
			t.Errorf("sibling %dMB %s stopped at %d refs", r.MemMB, r.Policy, r.Result.Refs)
		}
		if r.Result.Events.PageIns == 0 {
			t.Errorf("sibling %dMB %s has empty results", r.MemMB, r.Policy)
		}
	}
}

// TestChaosRunReproducibleFromConfig: the acceptance criterion at the facade
// level — a fault-injected run is bit-for-bit reproducible from its Config
// alone (which is exactly what a repro bundle carries).
func TestChaosRunReproducibleFromConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 5 << 20
	cfg.TotalRefs = 150_000
	cfg.Seed = 3
	cfg.Faults = []FaultPlan{
		{Kind: FaultDirtyBitFlip, Every: 5000, Seed: 21},
		{Kind: FaultPageInIO, Every: 40, Seed: 4},
		{Kind: FaultCounterWrap, Every: 60_000},
	}
	res1, fail1 := RunHardened(cfg, SLC(), RunOptions{})
	res2, fail2 := RunHardened(cfg, SLC(), RunOptions{})
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("chaos run is not reproducible:\n%+v\n%+v", res1, res2)
	}
	if (fail1 == nil) != (fail2 == nil) {
		t.Errorf("failure outcomes diverged: %v vs %v", fail1, fail2)
	}
}
