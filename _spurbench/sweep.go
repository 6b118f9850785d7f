package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	spur "repro"
	"repro/internal/core"
	"repro/internal/parallel"
)

// The sweep grid: both paper workloads, every reference-bit policy, and
// memory sizes from paging-heavy (4-5 MB) to paging-light (12-16 MB), the
// shape of the memory study behind Table 4.1 and cmd/sweep.
var (
	gridWorkloads = []core.WorkloadName{core.SLC, core.Workload1}
	gridSizesMB   = []int{4, 5, 12, 16}
)

const (
	// exactRefs is each exact cell's reference budget: long enough that
	// simulation, not per-cell construction, carries the time.
	exactRefs = 500_000
	// sampledRefs is each sampled cell's projected budget, 8x the exact
	// sweep's; sampledOpts keeps the detailed share under a fifth.
	sampledRefs = 4_000_000
	// probeRefs is the token budget of a set-up probe sweep.
	probeRefs = 1_000
	// setupRounds is how many set-ups a sweep run times (median reported).
	setupRounds = 51
	// inputSpace is how many distinct sweep inputs there are: --seed picks
	// input seed%inputSpace, and digests.json records the output of each,
	// so every sweep run's output is checked against a recorded digest.
	inputSpace = 256
)

// sampledOpts is the sampling design: 50k-reference intervals (80 per
// stream), at most 6 phases, one interval of warmup and a two-interval
// exact prefix, so 700k of each cell's 4M references are simulated in
// detail and the rest functionally warmed. Every field is explicit so the
// traced run can rebuild the identical plan.
func sampledOpts() spur.SampleOptions {
	return spur.SampleOptions{IntervalLen: 50_000, K: 6, Warmup: 50_000, Prefix: 100_000}
}

// sweepOpts is the memory sweep a run measures. The experiment seed is
// derived from the benchmark seed's input index (see inputSpace), so seed 0
// is a valid, distinct input.
func sweepOpts(seed uint64, refs int64, workers int) spur.MemorySweepOptions {
	return spur.MemorySweepOptions{
		Workloads: gridWorkloads,
		SizesMB:   gridSizesMB,
		Policies:  spur.RefPolicies,
		Refs:      refs,
		Seed:      parallel.DeriveSeed(seed%inputSpace, 0x5377656570), // "Sweep"
		Reps:      1,
		Parallel:  workers,
	}
}

func gridCells() int { return len(gridWorkloads) * len(gridSizesMB) * len(spur.RefPolicies) }

// gridLabel names the grid a digest table was recorded for.
func gridLabel(workload string) string {
	refs := exactRefs
	if workload == "sweep-sampled" {
		refs = sampledRefs
	}
	return fmt.Sprintf("%v x %vMB x %v @ %d refs, sample %+v, version %s",
		gridWorkloads, gridSizesMB, spur.RefPolicies, refs, sampledOpts(), spur.Version)
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// exactSweep runs one exact sweep and returns its CSV and quarantine count.
func exactSweep(opts spur.MemorySweepOptions) ([]spur.MemorySweepRow, string, int) {
	rows := spur.MemorySweep(opts)
	fails := 0
	for _, r := range rows {
		for _, rep := range r.Reps {
			if rep.Failure != nil {
				fails++
			}
		}
	}
	return rows, spur.MemorySweepCSV(rows), fails
}

func sampledSweep(opts spur.MemorySweepOptions) ([]spur.SampledRow, string, error) {
	rows, err := spur.MemorySweepSampled(opts, sampledOpts())
	if err != nil {
		return nil, "", err
	}
	return rows, spur.SampledSweepCSV(rows), nil
}

// timeSetups times the sweep's fixed cost: the same grid through the same
// entry point at a token budget, so option filling, dispatch, per-cell
// machine and script construction and the final audits dominate. It
// returns the median of setupRounds probes; hs calibrates between them.
func timeSetups(hs *hostSpeed, probe func() error) (float64, error) {
	var ts []float64
	for i := 0; i < setupRounds; i++ {
		t := time.Now()
		if err := probe(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ts = append(ts, secs(time.Since(t)))
		hs.tick()
	}
	return median(ts), nil
}

// sweepPasses repeats one sweep until the measuring window closes and
// returns each pass's wall time; hs calibrates between passes. Every pass
// must reproduce the first pass's output digest; the digest must also match
// the recorded table.
func sweepPasses(cfg runConfig, res *result, hs *hostSpeed, pass func() (csv string, fails int, err error)) ([]float64, error) {
	var walls []float64
	var first string
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < cfg.Seconds {
		t := time.Now()
		csv, fails, err := pass()
		if err != nil {
			return nil, err
		}
		walls = append(walls, secs(time.Since(t)))
		hs.tick()
		res.Attempted += gridCells()
		res.Failed += fails
		d := digest(csv)
		if first == "" {
			first = d
			checkRecordedDigest(res, cfg.Workload, cfg.Seed, d)
		} else if d != first {
			res.fail("pass %d output digest %.12s differs from pass 1's %.12s", len(walls), d, first)
		}
	}
	if res.Failed > 0 {
		res.fail("%d of %d cell runs were quarantined", res.Failed, res.Attempted)
	}
	res.Samples["passes"] = len(walls)
	return walls, nil
}

// sweepE2E reports the end-to-end metrics shared by both sweeps.
func sweepE2E(res *result, hs *hostSpeed, setup float64, walls []float64, refsPerPass float64) {
	var rps []float64
	for _, w := range walls {
		rps = append(rps, refsPerPass/w)
	}
	reportTimes(res, hs, setup, median(walls), median(rps), maxRSSMiB())
}

// reportTimes reports the end-to-end metrics of a run: setup_s, wall_s and
// refs_per_s from its raw times, put at reference-host speed, and
// max_rss_mb. The record line also carries the raw times and the median
// calibration.
func reportTimes(res *result, hs *hostSpeed, setup, wall, refsPerS, rssMiB float64) {
	f := hs.factor()
	res.add("setup_s", setup*f, "s")
	res.add("wall_s", wall*f, "s")
	res.add("refs_per_s", refsPerS/f, "refs/s")
	res.add("max_rss_mb", rssMiB, "MiB")
	res.addRaw("setup_s", setup, "s")
	res.addRaw("wall_s", wall, "s")
	res.addRaw("refs_per_s", refsPerS, "refs/s")
	res.addRaw("cal_s", median(hs.cals), "s")
	res.Samples["calibrations"] = len(hs.cals)
}

func runSweepExact(cfg runConfig) (*result, error) {
	res := &result{Correct: true, Samples: map[string]int{"cells": gridCells(), "setup_rounds": setupRounds}}
	opts := sweepOpts(cfg.Seed, exactRefs, cfg.Workers)
	probe := sweepOpts(cfg.Seed, probeRefs, cfg.Workers)
	hs := newHostSpeed(cfg.Workers)
	setup, err := timeSetups(hs, func() error {
		if _, _, fails := exactSweep(probe); fails > 0 {
			return fmt.Errorf("%d probe runs quarantined", fails)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return res, traceExact(cfg, opts, res, tracer{})
	}
	walls, err := sweepPasses(cfg, res, hs, func() (string, int, error) {
		_, csv, fails := exactSweep(opts)
		return csv, fails, nil
	})
	if err != nil {
		return nil, err
	}
	sweepE2E(res, hs, setup, walls, float64(gridCells())*exactRefs)
	return res, nil
}

func runSweepSampled(cfg runConfig) (*result, error) {
	res := &result{Correct: true, Samples: map[string]int{"cells": gridCells(), "setup_rounds": setupRounds}}
	opts := sweepOpts(cfg.Seed, sampledRefs, cfg.Workers)
	probe := sweepOpts(cfg.Seed, 4*probeRefs, cfg.Workers)
	hs := newHostSpeed(cfg.Workers)
	setup, err := timeSetups(hs, func() error {
		_, err := spur.MemorySweepSampled(probe, spur.SampleOptions{IntervalLen: probeRefs, K: 2})
		return err
	})
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return res, traceSampled(cfg, opts, res)
	}
	walls, err := sweepPasses(cfg, res, hs, func() (string, int, error) {
		_, csv, err := sampledSweep(opts)
		return csv, 0, err
	})
	if err != nil {
		return nil, err
	}
	sweepE2E(res, hs, setup, walls, float64(gridCells())*sampledRefs)
	return res, nil
}

// digestTable is the recorded output of each sweep per benchmark seed.
type digestTable map[string]struct {
	Grid    string            `json:"grid"`
	Digests map[string]string `json:"digests"`
}

//go:embed digests.json
var recordedDigests []byte

// checkRecordedDigest compares a sweep's CSV digest with the one recorded
// for this seed's input. A missing entry means digests.json is stale and
// fails the run.
func checkRecordedDigest(res *result, workload string, seed uint64, got string) {
	var tab digestTable
	if err := json.Unmarshal(recordedDigests, &tab); err != nil {
		res.fail("digests.json: %v", err)
		return
	}
	ent, ok := tab[workload]
	if !ok {
		res.fail("digests.json has no table for %s; regenerate with --record-digests", workload)
		return
	}
	if ent.Grid != gridLabel(workload) {
		res.fail("digests.json was recorded for grid %q, the benchmark runs %q; regenerate with --record-digests", ent.Grid, gridLabel(workload))
		return
	}
	in := seed % inputSpace
	want, ok := ent.Digests[strconv.FormatUint(in, 10)]
	if !ok {
		res.fail("digests.json has no %s digest for input %d; regenerate with --record-digests", workload, in)
		return
	}
	if got != want {
		res.fail("%s seed %d (input %d) output digest %.12s, recorded %.12s", workload, seed, in, got, want)
	}
}

// recordDigests writes the digest table for every input of both sweeps.
func recordDigests(path string, workers int) error {
	tab := digestTable{}
	for _, wl := range []string{"sweep-exact", "sweep-sampled"} {
		ent := tab[wl]
		ent.Grid = gridLabel(wl)
		ent.Digests = map[string]string{}
		for seed := uint64(0); seed < inputSpace; seed++ {
			var csv string
			if wl == "sweep-exact" {
				_, c, fails := exactSweep(sweepOpts(seed, exactRefs, workers))
				if fails > 0 {
					return fmt.Errorf("%s seed %d: %d runs quarantined", wl, seed, fails)
				}
				csv = c
			} else {
				_, c, err := sampledSweep(sweepOpts(seed, sampledRefs, workers))
				if err != nil {
					return err
				}
				csv = c
			}
			ent.Digests[strconv.FormatUint(seed, 10)] = digest(csv)
		}
		tab[wl] = ent
	}
	data, err := json.MarshalIndent(tab, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
