package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/counters"
	"repro/internal/pte"
	"repro/internal/trace"
)

// Touch is the functional-warming counterpart of Access: it advances the
// machine's state for one reference — cache contents and line metadata,
// residency, page faults, reference and dirty bits, and the pager/daemon
// activity they trigger — without charging reference-processing time or
// raising the cache-performance events. The sampling engine drives the
// stream through Touch between representative intervals, so the state a
// representative interval starts from is the state the full run would have
// reached, and the VM events the full run takes in those spans are taken
// (and counted) at the same references.
//
// Touch mirrors Access's state transitions: misses fill the block (and the
// PTE block in-cache translation would fetch), displacing the same victims;
// write hits update the same line flags and take the same dirty-bit faults;
// page faults, reference faults and their handler PTE stores go through the
// same xlate and pager paths. What it omits is exactly the measurement: hit
// and miss counters, policy-check events (dirty-bit misses, excess faults,
// PTE checks), and the cycle costs of cache traffic. VM events — page
// faults and their kind breakdown, page-ins/outs, reference-bit traffic and
// page flushes — remain counted, so a machine warmed across a gap carries
// the full run's cumulative VM totals. The daemon's behavior is reference-
// driven (allocation pressure, reference bits), not time-driven, so leaving
// gap cycles uncharged does not perturb it.
func (e *Engine) Touch(r trace.Rec) {
	b := r.Addr.Block()
	if l, hit := e.Cache.Probe(b); hit {
		if r.Op == trace.OpWrite {
			e.touchWriteHit(l, r.Addr.Page(), b)
		}
		return
	}
	e.touchMiss(r.Op, b, r.Addr.Page())
}

// TouchBatch applies Touch to a buffer of references. It is the loop the
// sampled measuring pass spends most of its time in, so it is shaped like
// AccessBatchAt: the probe inlines, read hits — most of a warming stream —
// stay in the loop, and only write hits and misses call out. Touch stays
// the per-record API and the oracle FuzzTouchBatch holds this loop to.
func (e *Engine) TouchBatch(recs []trace.Rec) {
	for i := range recs {
		r := recs[i]
		b := r.Addr.Block()
		if l, hit := e.Cache.Probe(b); hit {
			if r.Op == trace.OpWrite {
				e.touchWriteHit(l, r.Addr.Page(), b)
			}
			continue
		}
		e.touchMiss(r.Op, b, r.Addr.Page())
	}
}

// touchPTEBlock makes page p's PTE block resident, fetching it as in-cache
// translation's TranslateMiss would on a miss.
func (e *Engine) touchPTEBlock(p addr.GVPN) {
	pteBlock := e.X.Table().PTEAddr(p).Block()
	if _, hit := e.Cache.Probe(pteBlock); !hit {
		e.Cache.IssueBus(coherence.BusRead, pteBlock)
		e.Cache.Fill(pteBlock, coherence.UnOwned, pte.ProtKernel, false, true, false)
	}
}

// touchMiss mirrors miss: warm the PTE block in, fault the page resident if
// needed, apply the reference-bit and dirty-bit policies, fill the block.
func (e *Engine) touchMiss(op trace.Op, b addr.BlockAddr, p addr.GVPN) {
	e.touchPTEBlock(p)
	entry := e.X.Table().Lookup(p)

	if !entry.Valid() {
		e.Cycles += e.TP.FaultCycles
		e.Pager.EnsureResident(p)
		entry = e.X.Table().Lookup(p)
		if !entry.Valid() {
			panic(fmt.Sprintf("core: page %#x invalid after warming fault", uint64(p)))
		}
	}

	if e.Ref != RefNONE && !entry.Referenced() {
		e.Ctr.Inc(counters.EvRefFault)
		e.Cycles += e.TP.FaultCycles
		var c uint64
		entry, c = e.X.UpdatePTE(p, func(en pte.Entry) pte.Entry { return en.WithReferenced(true) })
		e.Cycles += c
	}

	if op == trace.OpWrite && !entry.Dirty() {
		e.necessaryFault(p)
		entry = e.X.Table().Lookup(p)
	}

	state := coherence.UnOwned
	if op == trace.OpWrite {
		state = coherence.OwnedExclusive
		e.Cache.IssueBus(coherence.BusReadOwn, b)
	} else {
		e.Cache.IssueBus(coherence.BusRead, b)
	}
	e.Cache.Fill(b, state, entry.Prot(), entry.Dirty(), false, op == trace.OpWrite)
}

// touchWriteHit mirrors writeHit: take the necessary dirty fault the policy
// would take (policy-check events and stale-copy refresh costs are not
// measurement the warming pass keeps), then leave the line exactly as the
// re-executed store would — fresh PTE snapshots, block dirty, owned.
func (e *Engine) touchWriteHit(l cache.LineRef, p addr.GVPN, b addr.BlockAddr) {
	switch e.Dirty {
	case DirtyMIN, DirtySPUR:
		if !l.PageDirty() && !e.X.Table().Lookup(p).Dirty() {
			e.necessaryFault(p)
		}
	case DirtyFAULT, DirtyFLUSH:
		if !l.Prot().AllowsWrite() && !e.X.Table().Lookup(p).Dirty() {
			e.necessaryFault(p)
		}
	case DirtyWRITE:
		// The hardware check on the first write to a clean block reads
		// the PTE through the cache, fetching its block (CheckPTE).
		if !l.BlockDirty() {
			e.touchPTEBlock(p)
			if !e.X.Table().Lookup(p).Dirty() {
				e.necessaryFault(p)
			}
		}
	case DirtyPROT:
		if !l.Prot().AllowsWrite() && !e.X.Table().Lookup(p).Prot().AllowsWrite() {
			e.necessaryFault(p)
		}
	}

	entry := e.X.Table().Lookup(p)
	l, hit := e.Cache.Probe(b)
	if !hit {
		// Displaced by handler activity (a FLUSH fault, or the PTE store
		// landing in this frame): refetch as the re-executed store would.
		e.Cache.IssueBus(coherence.BusReadOwn, b)
		e.Cache.Fill(b, coherence.OwnedExclusive, entry.Prot(), entry.Dirty(), false, true)
		return
	}
	l.SetProt(entry.Prot())
	l.SetPageDirty(entry.Dirty())
	l.SetBlockDirty(true)
	ns, busOp, need := coherence.OnLocalWrite(l.State())
	if need {
		e.Cache.IssueBus(busOp, b)
	}
	l.SetState(ns)
}
