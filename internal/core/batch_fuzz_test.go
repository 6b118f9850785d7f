package core

import (
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/counters"
	"repro/internal/pte"
	"repro/internal/trace"
	"repro/internal/vm"
)

// fuzzStream draws n references over the rig's registered regions from
// seed: instruction fetches from the code region, reads and writes to the
// data and heap regions, mostly inside a small working set so blocks are
// revisited, written while cached clean, and evicted by the pager. If
// stray is in range, that record faults outside every region.
func fuzzStream(seed uint64, n, stray int) []trace.Rec {
	x := seed | 1
	next := func(k int) int {
		// xorshift64: cheap and fully determined by the seed.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(k))
	}
	recs := make([]trace.Rec, n)
	for i := range recs {
		page := next(12)
		if next(4) == 0 {
			page = next(256)
		}
		block := next(addr.BlocksPerPage)
		switch k := next(10); {
		case k < 2:
			recs[i] = trace.Rec{Op: trace.OpIFetch, Addr: codeAddr(page%64, block)}
		case k < 4:
			recs[i] = trace.Rec{Op: trace.OpWrite, Addr: dataAddr(page, block)}
		case k < 5:
			recs[i] = trace.Rec{Op: trace.Op(next(3)), Addr: heapAddr(page, block)}
		default:
			recs[i] = trace.Rec{Op: trace.OpRead, Addr: dataAddr(page, block)}
		}
	}
	if stray >= 0 && stray < n {
		recs[stray] = trace.Rec{Op: trace.OpRead, Addr: addr.Global(addr.SegmentID(7), 0)}
	}
	return recs
}

// rigState is everything a reference can change in a rig.
type rigState struct {
	shadow [counters.NumEvents]uint64
	hw     [counters.HardwareCounters + 1]uint32
	cycles uint64
	kinds  [4]uint64
	tags   []addr.BlockAddr
	meta   []uint8
	ptes   map[addr.GVPN]pte.Entry
	pager  vm.Stats
	paged  uint64 // pager cycles
}

func (r *rig) state() rigState {
	s := rigState{
		shadow: r.ctr.Snapshot(),
		hw:     r.ctr.HardwareSnapshot(),
		cycles: r.e.Cycles,
		kinds:  r.e.FaultsByKind,
		ptes:   map[addr.GVPN]pte.Entry{},
		pager:  r.e.Pager.Stats,
		paged:  r.e.Pager.Cycles,
	}
	s.tags, s.meta = r.e.Cache.ExportState()
	r.e.X.Table().Range(func(p addr.GVPN, e pte.Entry) bool {
		s.ptes[p] = e
		return true
	})
	return s
}

// drive runs fn and reports whether it panicked.
func drive(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// FuzzAccessBatch checks AccessBatch's batch-level accounting against
// per-record Access: for every dirty × reference policy pair and under each
// counter mode, a random stream split into random chunk sizes must leave
// the shadow and hardware counters, the cycle total, the fault breakdown,
// every cache line and every PTE exactly as Access leaves them. The
// hardware counters start at the edge of their 32-bit range, so the batch's
// single add must wrap them as its per-record increments would. A stray
// record makes both paths panic mid-stream; the batch must report where it
// stopped and fold the counts of the records before it in.
func FuzzAccessBatch(f *testing.F) {
	f.Add(uint64(1), []byte{255}, uint16(0xFFFF))
	f.Add(uint64(2), []byte{0, 3, 40, 1}, uint16(700))
	f.Add(uint64(3), []byte{9}, uint16(0))
	f.Add(uint64(4), []byte{}, uint16(1999))
	f.Fuzz(func(t *testing.T, seed uint64, chunks []byte, stray16 uint16) {
		const n = 2000
		stray := int(stray16) % (2 * n) // half the inputs have no stray record
		recs := fuzzStream(seed, n, stray)
		for _, dirty := range DirtyPolicies {
			for _, ref := range RefPolicies {
				for mode := 0; mode < counters.NumModes; mode++ {
					per, bat := newRig(dirty, ref, 40), newRig(dirty, ref, 40)
					for _, r := range []*rig{per, bat} {
						r.ctr.SetMode(mode)
						r.ctr.InjectWraparound(8)
					}
					done := 0
					perPanicked := drive(func() {
						for _, rec := range recs {
							per.e.Access(rec)
							done++
						}
					})
					pos, at := 0, 0
					batPanicked := drive(func() {
						for c := 0; pos < n; c++ {
							size := n
							if len(chunks) > 0 {
								size = 1 + int(chunks[c%len(chunks)])*8
							}
							chunk := recs[pos:min(pos+size, n)]
							bat.e.AccessBatchAt(chunk, &at)
							pos += len(chunk)
						}
					})
					if batPanicked {
						pos += at
					}
					if perPanicked != batPanicked || pos != done {
						t.Fatalf("%v/%v mode %d: per-record stopped at %d (panic %v), batch at %d (panic %v)",
							dirty, ref, mode, done, perPanicked, pos, batPanicked)
					}
					if got, want := bat.state(), per.state(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v/%v mode %d: batch state diverged from per-record Access\nbatch %+v\nper   %+v",
							dirty, ref, mode, got.shadow, want.shadow)
					}
				}
			}
		}
	})
}
