package spur

// Tests for the sampled experiment drivers: byte-stability across runs and
// parallelism, the estimator-vs-full validation harness at a CI-affordable
// scale, the rendered artifacts, and the store-key separation that keeps
// sampled estimates from ever being served as exact results.

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func sampledSweepOpts(par int) (MemorySweepOptions, SampleOptions) {
	return MemorySweepOptions{
			SizesMB:   []int{6, 8},
			Workloads: []core.WorkloadName{core.SLC},
			Refs:      400_000,
			Seed:      3,
			Reps:      2,
			Parallel:  par,
		}, SampleOptions{
			IntervalLen: 20_000,
		}
}

// TestMemorySweepSampledDeterministic is the sampled engine's core
// guarantee: identical CSV bytes on repeated runs and at any parallelism.
func TestMemorySweepSampledDeterministic(t *testing.T) {
	o1, s1 := sampledSweepOpts(1)
	serial, err := MemorySweepSampled(o1, s1)
	if err != nil {
		t.Fatal(err)
	}
	o2, s2 := sampledSweepOpts(4)
	par, err := MemorySweepSampled(o2, s2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SampledSweepCSV(par), SampledSweepCSV(serial); got != want {
		t.Errorf("parallel sampled CSV differs from serial:\n--- serial ---\n%s--- par=4 ---\n%s", want, got)
	}
	o3, s3 := sampledSweepOpts(1)
	again, err := MemorySweepSampled(o3, s3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SampledSweepCSV(again), SampledSweepCSV(serial); got != want {
		t.Errorf("repeated sampled sweep is not byte-stable")
	}
	// Every row carries all repetitions and a coherent design summary.
	for _, r := range serial {
		if len(r.Reps) != 2 {
			t.Fatalf("%s@%dMB/%s: %d reps, want 2", r.Workload, r.MemMB, r.Policy, len(r.Reps))
		}
		// At this toy scale warming costs more than the stream saves;
		// the design summary just has to be coherent (the real savings
		// assertion lives in TestValidateSamplingCI at 2M refs).
		if r.Estimate.TotalRefs != 400_000 || r.Estimate.SimulatedRefs <= 0 {
			t.Errorf("%s@%dMB/%s: design %d simulated of %d total",
				r.Workload, r.MemMB, r.Policy, r.Estimate.SimulatedRefs, r.Estimate.TotalRefs)
		}
	}
}

// TestTable41SampledRenders drives the sampled Table 4.1 end to end and
// checks the rendered artifact's shape: the full grid, error-bar columns,
// and MISS-relative ratios anchored at 100%.
func TestTable41SampledRenders(t *testing.T) {
	rows, err := Table41Sampled(
		Table41Options{Refs: 400_000, Reps: 1, Seed: 3, SizesMB: []int{8}},
		SampleOptions{IntervalLen: 20_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 1 * len(RefPolicies); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	doc := RenderTable41Sampled(rows).Doc()
	if len(doc.Rows) != len(rows) {
		t.Fatalf("rendered %d rows, want %d", len(doc.Rows), len(rows))
	}
	for _, r := range doc.Rows {
		if r[2] == RefMISS.String() && (r[5] != "(100%)" || r[8] != "(100%)") {
			t.Errorf("MISS row not anchored at 100%%: %v", r)
		}
	}
	if !strings.Contains(doc.Title, "sampled") {
		t.Errorf("sampled table title must say so: %q", doc.Title)
	}
}

// TestValidateSamplingCI runs the sampled-vs-full harness at a scale CI can
// afford. Every tracked metric must land inside its CI95 and the derived
// rates inside their relative-error bounds — the same gate the acceptance
// run applies at 10M references.
func TestValidateSamplingCI(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-vs-full comparison simulates the full stream six times")
	}
	rep, err := ValidateSampling(ValidateOptions{Refs: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Failures() {
		t.Errorf("%s %dMB %s %s: est %g vs full %g (rel err %.4f, ci95 %g, bound %g)",
			c.Workload, c.MemMB, c.Policy, c.Metric, c.Est, c.Full, c.RelErr, c.CI95, c.Bound)
	}
	if !rep.Pass {
		t.Error("validation report not marked passing")
	}
	// The sampled design must actually be a shortcut: the simulated span
	// (prefix + warmed representatives) stays well under the full stream.
	if rep.SimulatedRefs <= 0 || rep.SimulatedRefs > rep.Refs/2 {
		t.Errorf("sampled design simulates %d of %d refs", rep.SimulatedRefs, rep.Refs)
	}
}

// TestSampledSpecKeysDistinct: a sampled spec must never hash to the key of
// an exact experiment (or of the other sampled driver) — store kinds keep
// the namespaces apart even for identical option values.
func TestSampledSpecKeysDistinct(t *testing.T) {
	mo := MemorySweepOptions{SizesMB: []int{8}, Refs: 400_000, Seed: 3}
	mo.fill()
	so := SampleOptions{IntervalLen: 20_000}
	so.fill(mo.Refs)
	sweepKey, err := sampledSweepSpecKey(mo, so)
	if err != nil {
		t.Fatal(err)
	}
	to := Table41Options{Refs: 400_000, Seed: 3, SizesMB: []int{8}}
	to.fill()
	tableKey, err := sampledTable41SpecKey(to, so)
	if err != nil {
		t.Fatal(err)
	}
	if sweepKey == tableKey {
		t.Fatal("sampled sweep and sampled table hash to one key")
	}
	exactKey, err := sweepSpecKey(mo)
	if err != nil {
		t.Fatal(err)
	}
	if sweepKey == exactKey {
		t.Fatal("sampled sweep collides with the exact sweep's key")
	}
}
