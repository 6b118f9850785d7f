package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/counters"
	"repro/internal/pte"
	"repro/internal/trace"
	"repro/internal/vm"
)

// warmState is the part of a rig's state functional warming must leave
// exactly as full simulation does: cache contents and line metadata, PTEs,
// the pager, the dirty-fault breakdown, and the VM event counts Touch keeps.
type warmState struct {
	tags  []addr.BlockAddr
	meta  []uint8
	ptes  map[addr.GVPN]pte.Entry
	pager vm.PagerState
	kinds [4]uint64
	vm    [counters.NumEvents]uint64
}

// warmEvents are the counter events Touch raises exactly as Access does.
var warmEvents = []counters.Event{
	counters.EvDirtyFault, counters.EvZeroFillFault, counters.EvRefFault,
	counters.EvPageIn, counters.EvPageOut, counters.EvPageReclaim,
	counters.EvDaemonScan, counters.EvRefClear, counters.EvPageFlush, counters.EvBlockFlush,
}

func (r *rig) warmState() warmState {
	s := r.state()
	w := warmState{tags: s.tags, meta: s.meta, ptes: s.ptes, pager: r.e.Pager.ExportState(), kinds: s.kinds}
	for _, ev := range warmEvents {
		w.vm[ev] = s.shadow[ev]
	}
	return w
}

// equal is reflect.DeepEqual for rig states without reflection over the
// cache arrays, which the fuzz loop compares after every chunk.
func (s rigState) equal(o rigState) bool {
	return s.shadow == o.shadow && s.hw == o.hw && s.cycles == o.cycles && s.kinds == o.kinds &&
		slices.Equal(s.tags, o.tags) && slices.Equal(s.meta, o.meta) && maps.Equal(s.ptes, o.ptes) &&
		s.pager == o.pager && s.paged == o.paged
}

// diffWarm names the first component of two warm states that differs.
func diffWarm(got, want warmState) string {
	switch {
	case !slices.Equal(got.tags, want.tags) || !slices.Equal(got.meta, want.meta):
		for i := range want.tags {
			if got.tags[i] != want.tags[i] || got.meta[i] != want.meta[i] {
				return fmt.Sprintf("cache line %d differs (%#x/%#x, want %#x/%#x)", i, got.tags[i], got.meta[i], want.tags[i], want.meta[i])
			}
		}
		return "cache differs"
	case !maps.Equal(got.ptes, want.ptes):
		return "PTEs differ"
	case !reflect.DeepEqual(got.pager, want.pager):
		return "pager state differs"
	case got.kinds != want.kinds:
		return "FaultsByKind differs"
	case got.vm != want.vm:
		return "VM event counts differ"
	}
	return ""
}

// pteAlias returns a data block outside page p that shares a cache frame
// with p's PTE block (the cache is direct-mapped, indexed by the block
// address), or 0 if the data region holds none.
func (r *rig) pteAlias(p addr.GVPN) addr.GVA {
	lines := uint64(r.e.Cache.Lines())
	want := uint64(r.e.X.Table().PTEAddr(p).Block()) % lines
	for page := 0; page < 256; page++ {
		for blk := 0; blk < addr.BlocksPerPage; blk++ {
			if c := dataAddr(page, blk); c.Page() != p && uint64(c.Block())%lines == want {
				return c
			}
		}
	}
	return 0
}

// concentrate reshapes a fuzzStream for warming's hard cases. Block
// offsets fold into the first 16 blocks of each page, so blocks are read
// and then written while cached clean far more often; and about one record
// in eight becomes a read of a block sharing a cache frame with the PTE
// block of the page it touched, so PTE blocks are evicted and refetched
// all the time. Those are the paths where warming and full simulation most
// easily drift apart.
func (r *rig) concentrate(recs []trace.Rec, seed uint64) {
	x := seed | 1
	for i := range recs {
		a := recs[i].Addr
		recs[i].Addr = a - addr.GVA(uint64(a)%addr.PageBytes) + addr.GVA(uint64(a)%(16*addr.BlockBytes))
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%8 != 0 {
			continue
		}
		if alias := r.pteAlias(a.Page()); alias != 0 {
			recs[i] = trace.Rec{Op: trace.OpRead, Addr: alias}
		}
	}
}

// TestTouchWriteCheckFetchesPTEBlock pins a WRITE-policy warming case: a
// write hit to a clean block of a page that is already dirty. The
// hardware's PTE check (CheckPTE) reads the entry through the cache, so if
// the PTE block was evicted it is fetched back, displacing whatever holds
// its frame. Warming must fetch it too, or the warmed cache keeps a block
// the full run lost.
func TestTouchWriteCheckFetchesPTEBlock(t *testing.T) {
	a, a1 := dataAddr(0, 20), dataAddr(0, 21)
	warm, acc := newRig(DirtyWRITE, RefMISS, 64), newRig(DirtyWRITE, RefMISS, 64)

	pteBlock := acc.e.X.Table().PTEAddr(a.Page()).Block()
	b := acc.pteAlias(a.Page())
	if b == 0 {
		t.Fatal("no data block maps to the PTE block's frame")
	}

	stream := []trace.Rec{
		{Op: trace.OpWrite, Addr: a},  // page 0 faults in and goes dirty
		{Op: trace.OpRead, Addr: a1},  // a clean block of the dirty page
		{Op: trace.OpRead, Addr: b},   // evicts page 0's PTE block
		{Op: trace.OpWrite, Addr: a1}, // clean-block write hit: CheckPTE refetches
	}
	warm.e.TouchBatch(stream[:3])
	acc.e.AccessBatch(stream[:3])
	if _, hit := acc.e.Cache.Probe(pteBlock); hit {
		t.Fatal("page 0's PTE block is still resident; the stream does not exercise the check")
	}
	if l, hit := acc.e.Cache.Probe(a1.Block()); !hit || l.BlockDirty() {
		t.Fatal("the second block is not resident and clean before the write")
	}

	warm.e.TouchBatch(stream[3:])
	acc.e.AccessBatch(stream[3:])
	if _, hit := acc.e.Cache.Probe(b.Block()); hit {
		t.Fatal("b survived the full run's PTE check; the stream does not exercise it")
	}
	if _, hit := warm.e.Cache.Probe(b.Block()); hit {
		t.Error("b is still resident after warming: the WRITE check's PTE fetch was skipped")
	}
	if d := diffWarm(warm.warmState(), acc.warmState()); d != "" {
		t.Errorf("warmed state diverged from AccessBatch: %s", d)
	}
}

// FuzzTouchBatch checks functional warming two ways, for every dirty ×
// reference policy pair on a random stream — concentrated on revisited
// blocks and PTE-block conflicts — cut into random chunk sizes. After every
// chunk:
//
//   - TouchBatch's flat loop has left every field of the rig — counters,
//     cycles, fault breakdown, cache lines, PTEs, pager statistics —
//     exactly as per-record Touch does;
//   - the warm state matches AccessBatch's on the same stream: cache tags
//     and metadata, PTEs, the whole pager state, FaultsByKind and the VM
//     event counts. This is the contract the sampled estimator rests on: a
//     representative interval starts from the state the full run reaches.
//
// Checking at chunk boundaries, not only at the end, catches divergences
// a later eviction would paper over. A stray record makes every path panic
// at the same reference; the states up to it must still agree.
func FuzzTouchBatch(f *testing.F) {
	f.Add(uint64(1), []byte{255}, uint16(0xFFFF))
	f.Add(uint64(2), []byte{0, 3, 40, 1}, uint16(700))
	f.Add(uint64(3), []byte{9}, uint16(0))
	f.Add(uint64(4), []byte{}, uint16(1999))
	f.Add(uint64(5), []byte{2, 3}, uint16(2500))
	f.Fuzz(func(t *testing.T, seed uint64, chunks []byte, stray16 uint16) {
		const n = 2000
		stray := int(stray16) % (2 * n) // half the inputs have no stray record
		recs := fuzzStream(seed, n, stray)
		newRig(DirtyMIN, RefMISS, 40).concentrate(recs, seed)
		for _, dirty := range AllDirtyPolicies {
			for _, ref := range RefPolicies {
				per, bat, acc := newRig(dirty, ref, 40), newRig(dirty, ref, 40), newRig(dirty, ref, 40)
				for c, pos := 0, 0; pos < n; c++ {
					size := n
					if len(chunks) > 0 {
						size = 1 + int(chunks[c%len(chunks)])*8
					}
					chunk := recs[pos:min(pos+size, n)]
					pos += len(chunk)
					perPanicked := drive(func() {
						for _, rec := range chunk {
							per.e.Touch(rec)
						}
					})
					batPanicked := drive(func() { bat.e.TouchBatch(chunk) })
					accPanicked := drive(func() { acc.e.AccessBatch(chunk) })
					if perPanicked != batPanicked || batPanicked != accPanicked {
						t.Fatalf("%v/%v: panics differ by %d: Touch %v, TouchBatch %v, AccessBatch %v",
							dirty, ref, pos, perPanicked, batPanicked, accPanicked)
					}
					if got, want := bat.state(), per.state(); !got.equal(want) {
						t.Fatalf("%v/%v: TouchBatch state diverged from per-record Touch by %d\nbatch %+v\nper   %+v",
							dirty, ref, pos, got.shadow, want.shadow)
					}
					if d := diffWarm(bat.warmState(), acc.warmState()); d != "" {
						t.Fatalf("%v/%v: warmed state diverged from AccessBatch by %d: %s", dirty, ref, pos, d)
					}
					if batPanicked {
						break
					}
				}
			}
		}
	})
}
