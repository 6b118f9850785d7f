package main

import (
	"testing"
	"time"

	spur "repro"
	"repro/internal/core"
	"repro/internal/expstore"
	"repro/internal/trace"
)

// The attribution self-test: slow one layer's public call by a fixed delay
// and check that the traced split charges the delay to that layer and not
// to its neighbours. If it did not, a regression in one layer would be
// reported against another.

const delay = 10 * time.Millisecond

// spin burns delay of CPU time, the way a slower implementation would
// (a sleep would also let the CPU idle, which slows the next call).
func spin() {
	for t := time.Now(); time.Since(t) < delay; {
	}
}

type slowSource struct{ batcher }

func (s slowSource) NextBatch(buf []trace.Rec) int {
	spin()
	return s.batcher.NextBatch(buf)
}

type slowEngine struct{ accessor }

func (e slowEngine) AccessBatch(recs []trace.Rec) {
	spin()
	e.accessor.AccessBatch(recs)
}

// tinySweep is one workload, one memory size, two policies: 2 cells of
// 20k references, 5 batches each. The work is small next to the injected
// delay, so run-to-run noise (the race detector's included) cannot hide it.
func tinySweep(t *testing.T) (spur.MemorySweepOptions, []spur.MemorySweepRow) {
	t.Helper()
	opts := spur.MemorySweepOptions{
		Workloads: []core.WorkloadName{core.SLC}, SizesMB: []int{5},
		Policies: []spur.RefPolicy{spur.RefMISS, spur.RefNONE},
		Refs:     20_000, Seed: 7, Reps: 1, Parallel: 2,
	}
	rows, _, fails := exactSweep(opts)
	if fails > 0 {
		t.Fatalf("%d cells quarantined", fails)
	}
	return opts, rows
}

// batches is the number of NextBatch calls (and AccessBatch calls) the
// traced drive makes over the tiny sweep's cells.
func batches(opts spur.MemorySweepOptions) float64 {
	per := (opts.Refs + batchSize - 1) / batchSize
	return float64(per) * float64(len(opts.Policies))
}

func split(t *testing.T, opts spur.MemorySweepOptions, rows []spur.MemorySweepRow, tr tracer) layerSplit {
	t.Helper()
	l, _, err := splitPass(sweepJobs(opts, rows), opts.Parallel, tr)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// checkMoved asserts that only the named layer absorbed the added time.
func checkMoved(t *testing.T, base, slow layerSplit, added float64, layer string) {
	t.Helper()
	moved := map[string]float64{
		"workload.gen_s":  slow.gen - base.gen,
		"core.access_s":   slow.access - base.access,
		"machine.setup_s": slow.setup - base.setup,
		"machine.audit_s": slow.audit - base.audit,
	}
	if got := moved[layer]; got < 0.9*added {
		t.Errorf("%s grew by %.1f ms; the injected delay was %.1f ms", layer, got*1e3, added*1e3)
	}
	for name, d := range moved {
		if name != layer && d > 0.2*added {
			t.Errorf("%s grew by %.1f ms when only %s was slowed (by %.1f ms)", name, d*1e3, layer, added*1e3)
		}
	}
}

func TestAttributionWorkloadLayer(t *testing.T) {
	opts, rows := tinySweep(t)
	base := split(t, opts, rows, tracer{})
	slow := split(t, opts, rows, tracer{wrapSource: func(b batcher) batcher { return slowSource{b} }})
	checkMoved(t, base, slow, batches(opts)*delay.Seconds(), "workload.gen_s")
}

func TestAttributionCoreLayer(t *testing.T) {
	opts, rows := tinySweep(t)
	base := split(t, opts, rows, tracer{})
	slow := split(t, opts, rows, tracer{wrapEngine: func(a accessor) accessor { return slowEngine{a} }})
	checkMoved(t, base, slow, batches(opts)*delay.Seconds(), "core.access_s")
}

// The generation pass of the sampled sweep charges a slowed source to
// workload.gen_s as well.
func TestAttributionSampledGeneration(t *testing.T) {
	opts := sweepOpts(3, 40_000, 2)
	base, refs := generationPass(opts, nil)
	slow, _ := generationPass(opts, func(b batcher) batcher { return slowSource{b} })
	calls := float64(len(opts.Workloads)) * float64((opts.Refs+batchSize-1)/batchSize)
	if refs != int64(len(opts.Workloads))*opts.Refs {
		t.Fatalf("generated %d refs", refs)
	}
	if got, want := slow-base, calls*delay.Seconds(); got < 0.9*want {
		t.Errorf("workload.gen_s grew by %.1f ms; the injected delay was %.1f ms", got*1e3, want*1e3)
	}
}

type slowStore struct {
	kvStore
	slowGet, slowPut bool
}

func (s slowStore) Get(k expstore.Key) ([]byte, bool) {
	if s.slowGet {
		spin()
	}
	return s.kvStore.Get(k)
}

func (s slowStore) Put(k expstore.Key, data []byte) error {
	if s.slowPut {
		spin()
	}
	return s.kvStore.Put(k, data)
}

func TestAttributionStoreLayer(t *testing.T) {
	payloads := [][]byte{[]byte(`{"result":{"refs":1}}`), []byte(`[{"title":"t"}]`)}
	probe := func(st kvStore) (putMs, getUs float64) {
		puts, gets, err := storeProbe(st, payloads)
		if err != nil {
			t.Fatal(err)
		}
		return median(puts), median(gets)
	}
	// An in-memory store: the probe's attribution, not disk latency, is
	// under test.
	open := func() kvStore {
		st, err := expstore.Open("", expstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	basePut, baseGet := probe(open())
	d := delay.Seconds()

	put, get := probe(slowStore{kvStore: open(), slowGet: true})
	if (get-baseGet)/1e6 < 0.9*d {
		t.Errorf("expstore.get_us_p50 grew by %.0f us under a %.0f us Get delay", get-baseGet, d*1e6)
	}
	if (put-basePut)/1e3 > 0.2*d {
		t.Errorf("expstore.put_ms_p50 grew by %.3f ms when only Get was slowed", put-basePut)
	}

	put, get = probe(slowStore{kvStore: open(), slowPut: true})
	if (put-basePut)/1e3 < 0.9*d {
		t.Errorf("expstore.put_ms_p50 grew by %.3f ms under a %.3f ms Put delay", put-basePut, d*1e3)
	}
	if (get-baseGet)/1e6 > 0.2*d {
		t.Errorf("expstore.get_us_p50 grew by %.0f us when only Put was slowed", get-baseGet)
	}
}
