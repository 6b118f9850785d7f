package spur

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
)

// This file holds the experiments beyond the paper's tables: the
// sensitivity studies its text argues verbally, made executable.

// CacheSweepRow is one cell of the cache-size sensitivity study.
type CacheSweepRow struct {
	CacheBytes int
	Policy     RefPolicy
	PageIns    uint64
	RefFaults  uint64
	Elapsed    float64
	// RelPageIns is relative to the REF policy (true reference bits) at
	// the same cache size: how much the MISS approximation loses as the
	// cache grows.
	RelPageIns float64
}

// CacheSweepOptions parameterises the sweep.
type CacheSweepOptions struct {
	// CacheSizes in bytes; defaults to 32 KB .. 8 MB.
	CacheSizes []int
	// MemMB is the main memory (default 5, the paper's most paging-heavy
	// point); Refs per run (default 8M); Seed.
	MemMB int
	Refs  int64
	Seed  uint64
}

// CacheSweep runs the Section 4 thought experiment the paper argues
// verbally: "For small caches, the MISS policy is probably a good
// approximation to true reference bits... But as caches increase in size,
// we expect the approximation to become worse. Consider a cache of infinite
// capacity: once a block is brought into the cache it never leaves...
// the MISS policy never sets the reference bit once the entire page is
// resident." The sweep runs SLC under MISS, REF and NOREF across cache
// sizes and reports how the miss-bit approximation degrades.
func CacheSweep(opts CacheSweepOptions) []CacheSweepRow {
	if len(opts.CacheSizes) == 0 {
		opts.CacheSizes = []int{32 << 10, 128 << 10, MiB(1), MiB(8)}
	}
	if opts.MemMB == 0 {
		opts.MemMB = 5
	}
	if opts.Refs == 0 {
		opts.Refs = 8_000_000
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	p := plan{seed: opts.Seed, fixedSeed: true, parallel: 1}
	for _, cb := range opts.CacheSizes {
		for _, pol := range RefPolicies {
			cfg := DefaultConfig()
			cfg.CacheBytes = cb
			cfg.MemoryBytes = core.MiB(opts.MemMB)
			cfg.TotalRefs = opts.Refs
			cfg.Ref = pol
			p.cells = append(p.cells, planCell{cfg, SLC()})
		}
	}
	res := p.results()
	var rows []CacheSweepRow
	for i, cb := range opts.CacheSizes {
		byPol := map[RefPolicy]Result{}
		for j, pol := range RefPolicies {
			byPol[pol] = res[i*len(RefPolicies)+j]
		}
		refIns := byPol[RefTRUE].Events.PageIns
		for _, pol := range RefPolicies {
			r := byPol[pol]
			row := CacheSweepRow{
				CacheBytes: cb,
				Policy:     pol,
				PageIns:    r.Events.PageIns,
				RefFaults:  r.Events.RefFaults,
				Elapsed:    r.ElapsedSeconds,
			}
			if refIns > 0 {
				row.RelPageIns = float64(r.Events.PageIns) / float64(refIns)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderCacheSweep renders the sweep.
func RenderCacheSweep(rows []CacheSweepRow) *report.Table {
	t := &report.Table{
		Title:  "Extension: MISS-bit approximation vs cache size (SLC)",
		Header: []string{"Cache", "Policy", "Page-Ins", "(vs REF)", "Ref Faults", "Elapsed(s)"},
	}
	for _, r := range rows {
		t.Add(fmt.Sprintf("%dK", r.CacheBytes>>10), r.Policy.String(),
			r.PageIns, report.Pct(r.RelPageIns), r.RefFaults, fmt.Sprintf("%.0f", r.Elapsed))
	}
	t.Note("the paper's §4 argument: with larger caches the miss-bit approximation decays toward NOREF")
	return t
}

// FaultHandlerSweepRow is one cell of the fault-handler-cost sensitivity
// study.
type FaultHandlerSweepRow struct {
	TdsCycles uint64
	Relative  map[DirtyPolicy]float64
}

// FaultHandlerSweep evaluates the Table 3.4 models while sweeping t_ds, the
// untuned ~1000-cycle fault handler the paper footnotes ("we believe that
// it can be improved, but doing so will not affect our conclusions") —
// and shows the conclusion really is insensitive: FAULT's relative overhead
// barely moves, while WRITE's worsens as faults get cheaper.
func FaultHandlerSweep(ev Events) []FaultHandlerSweepRow {
	var rows []FaultHandlerSweepRow
	for _, tds := range []uint64{250, 500, 1000, 2000, 4000} {
		tp := Timing()
		tp.FaultCycles = tds
		o := core.OverheadTable(ev, tp)
		rows = append(rows, FaultHandlerSweepRow{TdsCycles: tds, Relative: o.Relative})
	}
	return rows
}

// RenderFaultHandlerSweep renders the sweep.
func RenderFaultHandlerSweep(rows []FaultHandlerSweepRow) *report.Table {
	t := &report.Table{
		Title:  "Extension: dirty-bit overhead (relative to MIN) vs fault-handler cost t_ds",
		Header: []string{"t_ds", "FAULT", "FLUSH", "SPUR", "WRITE"},
	}
	for _, r := range rows {
		t.Add(r.TdsCycles,
			report.Ratio(r.Relative[DirtyFAULT]), report.Ratio(r.Relative[DirtyFLUSH]),
			report.Ratio(r.Relative[DirtySPUR]), report.Ratio(r.Relative[DirtyWRITE]))
	}
	return t
}

// DirtyPROT is the generalized protection-bit-miss variant (footnote 5 of
// the paper): identical performance to DirtySPUR with no extra cache bit.
const DirtyPROT = core.DirtyPROT

// AllDirtyPolicies includes DirtyPROT after the paper's five.
var AllDirtyPolicies = core.AllDirtyPolicies
