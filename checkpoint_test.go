package spur

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expstore"
	"repro/internal/journal"
)

func ckptSweepOpts() MemorySweepOptions {
	return MemorySweepOptions{
		SizesMB:   []int{5, 6},
		Workloads: []core.WorkloadName{core.SLC},
		Refs:      200_000,
		Seed:      11,
		Reps:      2,
		Parallel:  4,
	}
}

func TestMemorySweepJournaledMatchesUninterrupted(t *testing.T) {
	baseline := MemorySweepCSV(MemorySweep(ckptSweepOpts()))

	path := filepath.Join(t.TempDir(), "sweep.journal")
	rows, err := MemorySweepJournaled(ckptSweepOpts(), path, false)
	if err != nil {
		t.Fatalf("MemorySweepJournaled: %v", err)
	}
	if got := MemorySweepCSV(rows); got != baseline {
		t.Fatalf("journaled sweep CSV differs from plain sweep:\n%s\nvs\n%s", got, baseline)
	}

	// Resuming a *complete* journal recomputes nothing and still matches.
	rows, err = MemorySweepJournaled(ckptSweepOpts(), path, true)
	if err != nil {
		t.Fatalf("resume of complete journal: %v", err)
	}
	if got := MemorySweepCSV(rows); got != baseline {
		t.Fatalf("resumed-complete CSV differs:\n%s\nvs\n%s", got, baseline)
	}
}

func TestMemorySweepJournaledResumeAfterInterrupt(t *testing.T) {
	baseline := MemorySweepCSV(MemorySweep(ckptSweepOpts()))

	// Interrupt the first attempt by cancelling its context after a few
	// runs complete; the journal keeps what finished.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	ctx, cancel := context.WithCancel(context.Background())
	opts := ckptSweepOpts()
	opts.Context = ctx
	opts.Progress = func(done, total int) {
		if done == 3 {
			cancel()
		}
	}
	if _, err := MemorySweepJournaled(opts, path, false); err != nil {
		t.Fatalf("interrupted sweep: %v", err)
	}
	rep, err := journal.Replay(path)
	if err != nil {
		t.Fatalf("replaying interrupted journal: %v", err)
	}
	if len(rep.Entries) == 0 || len(rep.Entries) >= 12 {
		t.Fatalf("interrupted journal has %d entries, want a strict partial", len(rep.Entries))
	}

	// Resume with a fresh context: the completed runs are reused, the rest
	// computed, and the CSV is byte-identical to the uninterrupted run.
	rows, err := MemorySweepJournaled(ckptSweepOpts(), path, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := MemorySweepCSV(rows); got != baseline {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n%s\nvs\n%s", got, baseline)
	}
}

func TestMemorySweepJournaledSpecMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if _, err := MemorySweepJournaled(ckptSweepOpts(), path, false); err != nil {
		t.Fatal(err)
	}

	wrong := ckptSweepOpts()
	wrong.Seed = 999 // different spec, same journal
	_, err := MemorySweepJournaled(wrong, path, true)
	if err == nil {
		t.Fatal("resume with a different spec succeeded")
	}
	if !strings.Contains(err.Error(), "different experiment") {
		t.Fatalf("mismatch error %q does not name the cause", err)
	}

	// Creating fresh over an existing journal also fails loudly.
	if _, err := MemorySweepJournaled(ckptSweepOpts(), path, false); err == nil {
		t.Fatal("fresh journal over an existing file succeeded")
	}
}

func TestTable41JournaledResume(t *testing.T) {
	base := Table41Options{Refs: 150_000, Reps: 2, Seed: 5, SizesMB: []int{5}, Parallel: 4}
	baseline := Table41(base)

	path := filepath.Join(t.TempDir(), "t41.journal")
	ctx, cancel := context.WithCancel(context.Background())
	opts := base
	opts.Context = ctx
	opts.Progress = func(done, total int) {
		if done == 2 {
			cancel()
		}
	}
	if _, err := Table41Journaled(opts, path, false); err != nil {
		t.Fatalf("interrupted table 4.1: %v", err)
	}

	rows, err := Table41Journaled(base, path, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(rows, baseline) {
		t.Fatalf("resumed Table 4.1 differs from uninterrupted run:\n%+v\nvs\n%+v", rows, baseline)
	}

	// The rendered table (what cmd/tables prints) is identical too.
	if got, want := RenderTable41(rows, true).String(), RenderTable41(baseline, true).String(); got != want {
		t.Fatalf("rendered table differs:\n%s\nvs\n%s", got, want)
	}

	// A journal for table 4.1 does not resume a memory sweep.
	sw := ckptSweepOpts()
	sw.Seed = 5
	if _, err := MemorySweepJournaled(sw, path, true); err == nil {
		t.Fatal("sweep resumed from a table 4.1 journal")
	}
}

// TestJournalSpecKeysStable pins the journal header spec keys of every
// checkpointable driver for one fixed option set. A resumed run refuses a
// journal whose key differs, so a key that drifts strands every
// checkpoint journal written before the change.
func TestJournalSpecKeysStable(t *testing.T) {
	o := MemorySweepOptions{
		SizesMB:    []int{5, 6},
		Policies:   []RefPolicy{RefMISS, RefNONE},
		Workloads:  []core.WorkloadName{core.SLC},
		Refs:       200_000,
		Seed:       11,
		Reps:       2,
		AuditEvery: 50_000,
	}
	o.fill()
	t41 := Table41Options{Refs: 150_000, Reps: 2, Seed: 5, SizesMB: []int{5}}
	t41.fill()
	so := SampleOptions{IntervalLen: 10_000, K: 4, Warmup: 20_000, Prefix: 30_000}
	so.fill(o.Refs)
	so41 := SampleOptions{IntervalLen: 10_000, K: 4, Warmup: 20_000, Prefix: 30_000}
	so41.fill(t41.Refs)

	for _, c := range []struct {
		name string
		key  func() (expstore.Key, error)
		want expstore.Key
	}{
		{"sweepSpecKey", func() (expstore.Key, error) { return sweepSpecKey(o) },
			"9cd0d9fd23991c9da1c18372687899897453a1f24d4a8303d03ea3913a77172d"},
		{"table41SpecKey", func() (expstore.Key, error) { return table41SpecKey(t41) },
			"c197a94a5b23351864c2fe2890dda7bd99dd3803ded34e7be1a64513647cdf31"},
		{"sampledSweepSpecKey", func() (expstore.Key, error) { return sampledSweepSpecKey(o, so) },
			"aed32e0bf81fc628ffbcbc738bc1e4f90d39bf36d8495f6734ad7800990693a5"},
		{"sampledTable41SpecKey", func() (expstore.Key, error) { return sampledTable41SpecKey(t41, so41) },
			"698b889385972417f802616c0f795666684b914503fc543b6b50541d7b5cb324"},
	} {
		got, err := c.key()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s = %s, want %s (journals written before this change would no longer resume)", c.name, got, c.want)
		}
	}
}
