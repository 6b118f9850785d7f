package spur

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (at a reduced reference budget so iterations stay tractable)
// and additionally benchmarks the simulator's primitives. Run with
//
//	go test -bench=. -benchmem
//
// The Table benches report the headline quantity of each table through
// b.ReportMetric so the regenerated shape is visible in the bench output.

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

const benchRefs = 2_000_000

// BenchmarkTable21 regenerates the system-configuration table.
func BenchmarkTable21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Table21().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable31 regenerates the dirty-bit alternatives taxonomy.
func BenchmarkTable31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Table31().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable32 regenerates the time-parameter table.
func BenchmarkTable32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Table32().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable33 regenerates the event-frequency table (both workloads,
// all three memory sizes) at a reduced reference budget.
func BenchmarkTable33(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table33(Table33Options{Refs: benchRefs, Seed: uint64(i + 1)})
		ev := rows[len(rows)-1].Events // WORKLOAD1 @ 8MB
		b.ReportMetric(float64(ev.Nds), "Nds-W1@8MB")
		b.ReportMetric(ev.ExcessFractionExcludingZFOD(), "excess-frac")
	}
}

// BenchmarkTable34 evaluates the Section 3.2 overhead models — over the
// published Table 3.3 inputs (the exact reproduction) and over a measured
// run.
func BenchmarkTable34(b *testing.B) {
	tp := Timing()
	for i := 0; i < b.N; i++ {
		for _, r := range core.PaperTable33 {
			row := core.OverheadTable(r.Events(), tp)
			if row.Relative[DirtySPUR] > row.Relative[DirtyFAULT] {
				b.Fatal("model ordering violated")
			}
		}
	}
	row := core.OverheadTable(core.PaperTable33[0].Events(), tp)
	b.ReportMetric(row.Relative[DirtyFAULT], "rel-FAULT-SLC@5")
	b.ReportMetric(row.Relative[DirtyWRITE], "rel-WRITE-SLC@5")
}

// BenchmarkTable35 regenerates the Sprite page-out study. Pressure on the
// hosts builds over the run, so this bench needs the full budget and takes
// several seconds per iteration.
func BenchmarkTable35(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table35(uint64(i + 1))
		b.ReportMetric(rows[0].PctNotMod, "pct-notmod-mace8MB")
	}
}

// BenchmarkTable41 regenerates the reference-bit policy comparison at a
// reduced budget with one repetition.
func BenchmarkTable41(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table41(Table41Options{Refs: benchRefs, Reps: 1, Seed: uint64(i + 1)})
		for _, r := range rows {
			if r.Workload == core.SLC && r.MemMB == 5 && r.Policy == RefNONE {
				b.ReportMetric(100*r.RelPageIns, "NOREF-pageins-pct-SLC@5")
			}
		}
	}
}

// BenchmarkMemorySweepParallel measures the memory-size sweep through the
// bounded parallel engine at increasing -par, demonstrating near-linear
// scaling on multi-core hosts (the sweep's cells are fully independent).
// Output is byte-identical across the sub-benchmarks; only wall-clock
// changes.
func BenchmarkMemorySweepParallel(b *testing.B) {
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := MemorySweep(MemorySweepOptions{
					Workloads: []core.WorkloadName{core.SLC},
					SizesMB:   []int{4, 5, 6, 8},
					Refs:      1_000_000,
					Seed:      uint64(i + 1),
					Reps:      2,
					Parallel:  par,
				})
				if len(rows) != 4*len(RefPolicies) {
					b.Fatalf("rows = %d", len(rows))
				}
				b.ReportMetric(rows[0].PageIns.Mean, "pageins-SLC@4MB-MISS")
			}
		})
	}
}

// BenchmarkFigure31 runs the excess-fault demonstration.
func BenchmarkFigure31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Figure31() == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure32 renders the PTE / cache-line formats.
func BenchmarkFigure32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Figure32() == "" {
			b.Fatal("empty figure")
		}
	}
}

// --- simulator primitives --------------------------------------------------

func benchMachine(dirty DirtyPolicy) (*addr.SegmentID, addr.GVA, func(trace.Rec)) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 4 << 20
	cfg.Dirty = dirty
	m := NewMachine(cfg)
	seg := m.AllocSegment()
	m.AddRegion(addr.PageIn(seg, 0), 512, vm.Data)
	base := addr.PageIn(seg, 0).Base()
	return &seg, base, m.Engine.Access
}

// BenchmarkCacheHit measures the hit fast path: the whole point of a
// virtual address cache.
func BenchmarkCacheHit(b *testing.B) {
	_, base, access := benchMachine(DirtySPUR)
	r := trace.Rec{Op: trace.OpRead, Addr: base + 20*addr.BlockBytes}
	access(r) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access(r)
	}
}

// BenchmarkCacheMissXlate measures the miss path including in-cache
// translation (two alternating conflicting blocks, resident page).
func BenchmarkCacheMissXlate(b *testing.B) {
	_, base, access := benchMachine(DirtySPUR)
	a1 := base + 20*addr.BlockBytes
	a2 := a1 + 128<<10 // same cache index, different tag
	access(trace.Rec{Op: trace.OpRead, Addr: a1})
	access(trace.Rec{Op: trace.OpRead, Addr: a2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := a1
		if i&1 == 1 {
			a = a2
		}
		access(trace.Rec{Op: trace.OpRead, Addr: a})
	}
}

// BenchmarkWriteHit measures the write-hit path per dirty policy — where
// the alternatives differ.
func BenchmarkWriteHit(b *testing.B) {
	for _, pol := range DirtyPolicies {
		b.Run(pol.String(), func(b *testing.B) {
			_, base, access := benchMachine(pol)
			r := trace.Rec{Op: trace.OpWrite, Addr: base + 20*addr.BlockBytes}
			access(r) // fault once, warm the block
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				access(r)
			}
		})
	}
}

// BenchmarkWorkloadGen measures reference generation alone (scheduler +
// job behaviours), without the memory system.
func BenchmarkWorkloadGen(b *testing.B) {
	cfg := DefaultConfig()
	m := NewMachine(cfg)
	script := workload.NewScript(m, 1, Workload1())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := script.Next(); !ok {
			b.Fatal("generator ran dry")
		}
	}
}

// BenchmarkEndToEnd measures full simulation throughput (nanoseconds per
// reference through generator + engine + pager) on the path experiments
// take: the machine's run loop, batched generation and Engine.AccessBatch.
func BenchmarkEndToEnd(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 6 << 20
	m := NewMachine(cfg)
	script := workload.NewScript(m, 1, SLC())
	b.ResetTimer()
	if res := m.Run(script, int64(b.N)); res.Refs != int64(b.N) {
		b.Fatalf("ran %d of %d references", res.Refs, b.N)
	}
}

// BenchmarkExtensionCacheSweep runs the cache-size sensitivity study at a
// reduced budget.
func BenchmarkExtensionCacheSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := CacheSweep(CacheSweepOptions{
			CacheSizes: []int{128 << 10, 8 << 20},
			Refs:       1_000_000,
			Seed:       uint64(i + 1),
		})
		b.ReportMetric(rows[3].RelPageIns, "MISS-vs-REF-8MB-cache")
	}
}

// BenchmarkMPSharedWorkload measures multiprocessor simulation throughput
// and the growth of stale-copy events with the processor count.
func BenchmarkMPSharedWorkload(b *testing.B) {
	for _, cpus := range []int{1, 4, 12} {
		b.Run(itoa(cpus)+"cpu", func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.MemoryBytes = 32 << 20
			cfg.Dirty = DirtyFAULT
			m := machine.NewMP(cfg, cpus)
			w := workload.NewSharedWorkload(m, 1, workload.DefaultSharedParams(cpus))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cpu := i % cpus
				m.Access(cpu, w.Step(cpu))
			}
			ev := m.Events()
			if ev.Nds > 0 {
				b.ReportMetric(float64(ev.Nstale())/float64(ev.Nds), "stale-per-necessary")
			}
		})
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

// BenchmarkWorkloadGenBatch measures batched reference generation alone
// (NextBatch, as the sampling profiler and measuring pass consume the
// stream), the floor under every sampled-run projection: even a skipped
// gap costs this much per reference.
func BenchmarkWorkloadGenBatch(b *testing.B) {
	cfg := DefaultConfig()
	m := NewMachine(cfg)
	script := workload.NewScript(m, 1, Workload1())
	buf := make([]trace.Rec, 4096)
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := b.N - done
		if n > len(buf) {
			n = len(buf)
		}
		k := script.NextBatch(buf[:n])
		if k == 0 {
			b.Fatal("generator ran dry")
		}
		done += k
	}
}

// BenchmarkTouchWarm measures functional warming throughput (generation
// plus Engine.Touch per reference): the rate at which the sampled
// measuring pass advances cache and VM state between representative
// intervals. The gap between this and BenchmarkEndToEnd is what interval
// sampling saves per gap reference.
func BenchmarkTouchWarm(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 6 << 20
	m := NewMachine(cfg)
	script := workload.NewScript(m, 1, SLC())
	buf := make([]trace.Rec, 4096)
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := b.N - done
		if n > len(buf) {
			n = len(buf)
		}
		k := script.NextBatch(buf[:n])
		if k == 0 {
			b.Fatal("generator ran dry")
		}
		m.Engine.TouchBatch(buf[:k])
		done += k
	}
}

// BenchmarkMemorySweepSampledCell estimates one sweep cell by interval
// sampling, end to end: profile, cluster, exact prefix, warmed
// representatives, tail warming. Reported alongside
// BenchmarkMemorySweepParallel it shows what the estimator costs where the
// exact sweep's price is already known.
func BenchmarkMemorySweepSampledCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := MemorySweepSampled(MemorySweepOptions{
			Workloads: []core.WorkloadName{core.SLC},
			SizesMB:   []int{6},
			Policies:  []RefPolicy{RefMISS},
			Refs:      4_000_000,
			Seed:      uint64(i + 1),
		}, SampleOptions{IntervalLen: 250_000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Estimate.SimulatedRefs), "simrefs")
	}
}
