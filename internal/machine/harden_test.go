package machine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/faultinject"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func hardenCfg() Config {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 5 << 20
	cfg.TotalRefs = 200_000
	cfg.Seed = 11
	return cfg
}

// TestRunHardenedCleanMatchesPlainRun: without faults, hardening is
// observationally free — same events, same cycles, same refs.
func TestRunHardenedCleanMatchesPlainRun(t *testing.T) {
	cfg := hardenCfg()
	plain := RunSpec(cfg, workload.SLCSpec())
	hard, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{AuditEvery: 50_000})
	if fail != nil {
		t.Fatalf("clean hardened run failed: %v", fail)
	}
	if !reflect.DeepEqual(plain, hard) {
		t.Errorf("hardened result diverged:\nplain %+v\nhard  %+v", plain, hard)
	}
}

// TestRunHardenedRecoversIOExhaustion: a permanently failing backing store
// (PageInIO at every opportunity) exhausts the pager's retry budget; the
// resulting *vm.IOError panic becomes a structured RunFailure with a written
// repro bundle instead of a crashed test binary.
func TestRunHardenedRecoversIOExhaustion(t *testing.T) {
	dir := t.TempDir()
	cfg := hardenCfg()
	cfg.Faults = []faultinject.Plan{{Kind: faultinject.PageInIO, Every: 1}}
	res, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{
		ArtifactDir: dir, TraceTail: 16,
	})
	if fail == nil {
		t.Fatal("permanent I/O failure did not fail the run")
	}
	if fail.Kind != FailPanic {
		t.Errorf("kind = %s, want %s", fail.Kind, FailPanic)
	}
	if !strings.Contains(fail.Reason, "backing-store") {
		t.Errorf("reason = %q", fail.Reason)
	}
	if len(fail.Tail) == 0 || len(fail.Tail) > 16 {
		t.Errorf("tail has %d records", len(fail.Tail))
	}
	if len(fail.Injections) == 0 {
		t.Error("no injection log in the failure")
	}
	if res.Refs >= cfg.TotalRefs {
		t.Error("failed run claims to have completed")
	}

	// The bundle on disk round-trips and reproduces the config.
	if fail.BundlePath == "" {
		t.Fatal("no bundle written")
	}
	data, err := os.ReadFile(fail.BundlePath)
	if err != nil {
		t.Fatal(err)
	}
	var loaded RunFailure
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatalf("bundle does not parse: %v", err)
	}
	if loaded.Config.Seed != cfg.Seed || len(loaded.Config.Faults) != 1 ||
		loaded.Config.Faults[0].Kind != faultinject.PageInIO {
		t.Errorf("bundle config does not reproduce the run: %+v", loaded.Config)
	}
}

// TestTransientIOFaultsRetryAndComplete: sparse transient I/O errors are
// absorbed by retry-with-backoff — the run completes, the retries are
// counted, and the backoff shows up in elapsed time.
func TestTransientIOFaultsRetryAndComplete(t *testing.T) {
	cfg := hardenCfg()
	clean, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{})
	if fail != nil {
		t.Fatal(fail)
	}

	cfg2 := cfg
	cfg2.Faults = []faultinject.Plan{{Kind: faultinject.PageInIO, Every: 10, Seed: 5}}
	m := New(cfg2)
	script := workload.NewScript(m, cfg2.Seed, workload.SLCSpec())
	res, fail := m.RunHardened(script, cfg2.TotalRefs, RunOptions{})
	if fail != nil {
		t.Fatalf("transient faults killed the run: %v", fail)
	}
	if m.Pager.Stats.IORetries == 0 {
		t.Fatal("no retries recorded despite injected transient errors")
	}
	if res.Refs != clean.Refs {
		t.Errorf("refs %d != clean %d", res.Refs, clean.Refs)
	}
	if res.Cycles <= clean.Cycles {
		t.Error("retry/backoff cost did not appear in the elapsed-time model")
	}
	// The retries changed only time, not behaviour: same event counts
	// (elapsed time differs by exactly the backoff, so exclude it).
	gotEv, wantEv := res.Events, clean.Events
	gotEv.ElapsedSeconds, wantEv.ElapsedSeconds = 0, 0
	if gotEv != wantEv {
		t.Errorf("transient I/O retries changed simulated events:\n%+v\n%+v", gotEv, wantEv)
	}
}

// TestContinuousAuditCatchesInjectedCorruption: corrupted line tags are an
// invariant breach the continuous audit must catch mid-run.
func TestContinuousAuditCatchesInjectedCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := hardenCfg()
	cfg.Faults = []faultinject.Plan{{Kind: faultinject.LineCorrupt, Every: 2000}}
	_, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{
		AuditEvery: 500, ArtifactDir: dir,
	})
	if fail == nil {
		t.Fatal("injected line corruption never tripped the audit")
	}
	if fail.Kind != FailAudit {
		t.Fatalf("kind = %s (%s), want %s", fail.Kind, fail.Reason, FailAudit)
	}
	if !strings.Contains(fail.Reason, "page") {
		t.Errorf("audit reason = %q", fail.Reason)
	}
	if fail.BundlePath == "" {
		t.Error("no repro bundle for the audit breach")
	}
}

// TestHardenedRunReproducibleBitForBit: the acceptance criterion — a run
// with any fault plan replays exactly from its configuration, including
// which injections fired and where the run failed.
func TestHardenedRunReproducibleBitForBit(t *testing.T) {
	run := func() (Result, *RunFailure, []faultinject.Record) {
		cfg := hardenCfg()
		cfg.Faults = []faultinject.Plan{
			{Kind: faultinject.CounterWrap, Every: 30_000, Seed: 3},
			{Kind: faultinject.DirtyBitFlip, Every: 7000, Seed: 9},
			{Kind: faultinject.PageInIO, Every: 25, Seed: 17},
		}
		m := New(cfg)
		script := workload.NewScript(m, cfg.Seed, workload.SLCSpec())
		res, fail := m.RunHardened(script, cfg.TotalRefs, RunOptions{AuditEvery: 20_000})
		return res, fail, m.Inject.Log()
	}
	res1, fail1, log1 := run()
	res2, fail2, log2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("results diverged:\n%+v\n%+v", res1, res2)
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Error("injection logs diverged")
	}
	if (fail1 == nil) != (fail2 == nil) {
		t.Fatalf("one run failed, the other did not: %v vs %v", fail1, fail2)
	}
	if fail1 != nil && (fail1.Kind != fail2.Kind || fail1.Refs != fail2.Refs) {
		t.Errorf("failures diverged: %v vs %v", fail1, fail2)
	}
}

// TestCounterWrapInvisibleToMeasurements: injected hardware wraparounds do
// not perturb any measured result, because measurement reads the 64-bit
// software shadow — while the hardware view visibly diverges.
func TestCounterWrapInvisibleToMeasurements(t *testing.T) {
	cfg := hardenCfg()
	clean, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{})
	if fail != nil {
		t.Fatal(fail)
	}

	cfg2 := cfg
	cfg2.Faults = []faultinject.Plan{{Kind: faultinject.CounterWrap, Every: 10_000}}
	m := New(cfg2)
	script := workload.NewScript(m, cfg2.Seed, workload.SLCSpec())
	wrapped, fail := m.RunHardened(script, cfg2.TotalRefs, RunOptions{})
	if fail != nil {
		t.Fatal(fail)
	}
	if !reflect.DeepEqual(clean, wrapped) {
		t.Errorf("counter wraparound leaked into measurements:\n%+v\n%+v", clean, wrapped)
	}
	if m.Inject.Fired(faultinject.CounterWrap) == 0 {
		t.Fatal("no wraparounds were injected")
	}
	// The hardware-accurate view did lose counts: at least one hardware
	// counter disagrees with its shadow modulo 2^32.
	diverged := false
	for i := 0; i < 16; i++ {
		ev := m.Ctr.HardwareEvent(i)
		if uint64(m.Ctr.Hardware(i)) != m.Ctr.Count(ev)&0xFFFF_FFFF {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("hardware counters survived an injected wraparound unscathed")
	}
}

// tailRing is the oracle's trace tail: a ring of the most recent records,
// pushed once per reference.
type tailRing struct {
	recs []trace.Rec
	n    int
	head int // index of the oldest record once the ring is full
}

func (t *tailRing) push(r trace.Rec) {
	if len(t.recs) < t.n {
		t.recs = append(t.recs, r)
		return
	}
	t.recs[t.head] = r
	t.head = (t.head + 1) % t.n
}

func (t *tailRing) snapshot() []trace.Rec {
	out := make([]trace.Rec, len(t.recs))
	k := copy(out, t.recs[t.head:])
	copy(out[k:], t.recs[:t.head])
	return out
}

// perRecordRun is the reference the batched run loop is checked against:
// RunHardened's semantics spelled out one record at a time — pull a record,
// push it on the tail, Access it, count it, audit when the cadence is due.
// It has no deadline, whose timing no oracle can reproduce.
func perRecordRun(m *Machine, src trace.Source, n int64, opts RunOptions) (Result, *RunFailure) {
	tail := &tailRing{n: opts.TraceTail}
	if tail.n <= 0 {
		tail.n = defaultTraceTail
	}
	var fail *RunFailure
	func() {
		defer func() {
			if r := recover(); r != nil {
				fail = m.failure(FailPanic, fmt.Sprint(r), "", tail.snapshot(), opts)
			}
		}()
		bindRunnable(m.Pager, src)
		for i := int64(0); i < n; i++ {
			rec, ok := src.Next()
			if !ok {
				break
			}
			tail.push(rec)
			m.Engine.Access(rec)
			m.refs++
			if opts.AuditEvery > 0 && (i+1)%opts.AuditEvery == 0 {
				if err := Audit(m); err != nil {
					fail = m.failure(FailAudit, err.Error(), "", tail.snapshot(), opts)
					return
				}
			}
		}
		if !opts.SkipFinalAudit {
			if err := Audit(m); err != nil {
				fail = m.failure(FailAudit, "post-run: "+err.Error(), "", tail.snapshot(), opts)
			}
		}
	}()
	return m.Snapshot(), fail
}

// strayRecs is a stream over a registered data region with one stray
// record at position bad, whose page lies in no region: the pager panics
// on it with "vm: fault outside any region".
func strayRecs(m *Machine, n, bad int) []trace.Rec {
	seg := m.AllocSegment()
	m.AddRegion(addr.PageIn(seg, 0), 64, vm.Data)
	rng := workload.NewRNG(5)
	recs := make([]trace.Rec, n)
	for i := range recs {
		off := rng.Intn(64 * addr.PageBytes)
		recs[i] = trace.Rec{Op: trace.Op(rng.Intn(3)), Addr: addr.Global(seg, uint64(off))}
	}
	recs[bad] = trace.Rec{Op: trace.OpRead, Addr: addr.Global(m.AllocSegment(), 0)}
	return recs
}

// sameFailure requires two runs to have stopped identically: every field
// of the failure but the stack, and the cumulative result.
func sameFailure(t *testing.T, res, wantRes Result, fail, want *RunFailure) {
	t.Helper()
	if res != wantRes {
		t.Errorf("result diverged from the per-record oracle:\ngot  %+v\nwant %+v", res, wantRes)
	}
	if (fail == nil) != (want == nil) {
		t.Fatalf("failure = %v, oracle's = %v", fail, want)
	}
	if fail == nil {
		return
	}
	got, exp := *fail, *want
	got.Stack, exp.Stack = "", ""
	if !reflect.DeepEqual(got, exp) {
		t.Errorf("failure diverged from the per-record oracle:\ngot  %v (tail %d) %+v\nwant %v (tail %d) %+v",
			&got, len(got.Tail), got.Injections, &exp, len(exp.Tail), exp.Injections)
	}
}

// TestRunLoopPanicMatchesPerRecord: a record that panics in the pager
// mid-batch stops the batched loop exactly where a per-record loop stops —
// same Refs, same trace tail ending at the stray record, and the partial
// batch's counts folded into the result — whether the stray record is
// deep in a batch, just past a batch boundary (the tail reaches into the
// carried records), or in the first batch (the tail is short).
func TestRunLoopPanicMatchesPerRecord(t *testing.T) {
	for _, tc := range []struct {
		bad, tail int
	}{
		{bad: 5000},
		{bad: 4100},
		{bad: 4150, tail: 200},
		{bad: 10, tail: 200},
	} {
		run := func(oracle bool) (Result, *RunFailure) {
			m := New(DefaultConfig())
			src := trace.NewSliceSource(strayRecs(m, 9000, tc.bad))
			opts := RunOptions{TraceTail: tc.tail}
			if oracle {
				return perRecordRun(m, src, 9000, opts)
			}
			return m.RunHardened(src, 9000, opts)
		}
		res, fail := run(false)
		wantRes, want := run(true)
		sameFailure(t, res, wantRes, fail, want)
		if fail == nil || fail.Kind != FailPanic || !strings.Contains(fail.Reason, "vm: fault outside any region") {
			t.Fatalf("bad=%d: failure %v, want the stray record's pager panic", tc.bad, fail)
		}
		wantTail := max(tc.tail, defaultTraceTail)
		if fail.Refs != int64(tc.bad) || len(fail.Tail) != min(wantTail, tc.bad+1) {
			t.Errorf("bad=%d: refs %d tail %d", tc.bad, fail.Refs, len(fail.Tail))
		}
	}
}

// TestRunLoopAuditMatchesPerRecord: with audits every 1000 references —
// points that fall inside engine batches, not on their edges — an injected
// line corruption is caught at the same reference, with the same tail and
// injection log, as a per-record loop catches it; with no corruption the
// audited run completes with the oracle's result.
func TestRunLoopAuditMatchesPerRecord(t *testing.T) {
	for _, faults := range [][]faultinject.Plan{
		{{Kind: faultinject.LineCorrupt, Every: 2000}},
		nil,
	} {
		run := func(oracle bool) (Result, *RunFailure) {
			cfg := hardenCfg()
			cfg.Faults = faults
			m := New(cfg)
			script := workload.NewScript(m, cfg.Seed, workload.SLCSpec())
			opts := RunOptions{AuditEvery: 1000}
			if oracle {
				return perRecordRun(m, script, cfg.TotalRefs, opts)
			}
			return m.RunHardened(script, cfg.TotalRefs, opts)
		}
		res, fail := run(false)
		wantRes, want := run(true)
		sameFailure(t, res, wantRes, fail, want)
		if faults != nil && (fail == nil || fail.Kind != FailAudit || fail.Refs%1000 != 0 || fail.Refs%4096 == 0) {
			t.Fatalf("failure %v, want an audit breach between batch edges", fail)
		}
	}
}

// TestRunHardenedDeadline: a hopeless wall-clock budget stops the run with a
// deadline failure instead of hanging the sweep.
func TestRunHardenedDeadline(t *testing.T) {
	cfg := hardenCfg()
	cfg.TotalRefs = 50_000_000 // far more than a nanosecond of work
	res, fail := RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{
		Deadline: time.Nanosecond, SkipFinalAudit: true,
	})
	if fail == nil || fail.Kind != FailDeadline {
		t.Fatalf("fail = %v, want deadline", fail)
	}
	if res.Refs == 0 || res.Refs >= cfg.TotalRefs {
		t.Errorf("refs at deadline = %d", res.Refs)
	}
	// The wall clock is read only every deadlineStride references, audits
	// in between or not.
	_, fail = RunSpecHardened(cfg, workload.SLCSpec(), RunOptions{
		Deadline: time.Nanosecond, AuditEvery: 1000, SkipFinalAudit: true,
	})
	if fail == nil || fail.Kind != FailDeadline || fail.Refs == 0 || fail.Refs%deadlineStride != 0 {
		t.Errorf("deadline failure %v: refs not a multiple of the %d-reference stride", fail, deadlineStride)
	}
}

// TestMPSnoopDropBreaksCoherenceAndIsAudited: dropped snoops let stale
// copies survive; auditing the multiprocessor every 1000 references catches
// the coherence breach (at most one owner, exclusive means alone).
func TestMPSnoopDropBreaksCoherenceAndIsAudited(t *testing.T) {
	cfg := mpConfig()
	cfg.MemoryBytes = 32 << 20
	cfg.Faults = []faultinject.Plan{{Kind: faultinject.SnoopDrop, Every: 3}}
	m := NewMP(cfg, 4)
	w := workload.NewSharedWorkload(m, 1, workload.DefaultSharedParams(4))
	var breach error
	for i := 0; i < 400_000 && breach == nil; i++ {
		m.Access(i%4, w.Step(i%4))
		if (i+1)%1000 == 0 {
			breach = AuditMP(m)
		}
	}
	if m.Bus.DroppedSnoops == 0 {
		t.Fatal("no snoops were dropped")
	}
	if breach == nil {
		t.Fatal("dropped snoops never tripped the MP coherence audit")
	}
}

func TestWriteBundleConcurrentCollisions(t *testing.T) {
	// Quarantined cells of a parallel sweep write their repro bundles
	// concurrently. Even when every failure derives the same base filename,
	// the O_EXCL create loop must give each its own file without clobbering.
	dir := t.TempDir()
	cfg := DefaultConfig()
	const writers = 8
	var wg sync.WaitGroup
	paths := make([]string, writers)
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := &RunFailure{Kind: FailPanic, Reason: "synthetic", Config: cfg, Seed: cfg.Seed}
			paths[i], errs[i] = f.WriteBundle(dir)
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if seen[paths[i]] {
			t.Fatalf("two writers got the same bundle path %s", paths[i])
		}
		seen[paths[i]] = true
	}
	got, _ := filepath.Glob(filepath.Join(dir, "runfailure-*.json"))
	if len(got) != writers {
		t.Errorf("%d bundles on disk, want %d", len(got), writers)
	}
}
