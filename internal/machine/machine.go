// Package machine assembles the full SPUR simulator — virtual-address
// cache, in-cache translation, pager, policy engine, performance counters —
// and runs workloads against it.
package machine

import (
	"fmt"
	"math"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/pte"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
	"repro/internal/xlate"
)

// Reserved segments of the global virtual space.
const (
	// KernelSegment is reserved for the OS (never allocated to jobs).
	KernelSegment = addr.SegmentID(0)
	// PTESegment holds the first-level page table array.
	PTESegment = addr.SegmentID(addr.MaxSegmentID)
)

// Config selects the machine and experiment parameters.
type Config struct {
	// MemoryBytes is main memory (the paper sweeps 5, 6, 8 MB).
	MemoryBytes int
	// CacheBytes is the unified virtual-address cache (128 KB).
	CacheBytes int
	// WiredFrames is the kernel + wired page-table reservation.
	WiredFrames int

	// Dirty and Ref select the policies under test.
	Dirty core.DirtyPolicy
	Ref   core.RefPolicy
	// TagCheckFlush selects the tag-checking page flush the paper
	// assumes for its comparisons (false = SPUR's tag-ignoring flush).
	TagCheckFlush bool

	// Timing is the cycle-cost parameter set.
	Timing timing.Params

	// Seed drives the workload generators; repetitions vary it.
	Seed uint64
	// TotalRefs is the reference budget of one run.
	TotalRefs int64

	// Faults schedules deterministic fault injection (chaos runs). Empty
	// means no faults. Each run builds a fresh injector from these plans,
	// so a configuration replays bit-for-bit.
	Faults []faultinject.Plan
}

// DefaultConfig returns the prototype configuration at the reproduction's
// reference scale.
func DefaultConfig() Config {
	return Config{
		MemoryBytes:   core.MiB(8),
		CacheBytes:    128 << 10,
		WiredFrames:   128, // kernel + wired second-level page tables
		Dirty:         core.DirtySPUR,
		Ref:           core.RefMISS,
		TagCheckFlush: true,
		Timing:        timing.Default(),
		Seed:          1,
		TotalRefs:     20_000_000,
	}
}

// Machine is one assembled simulator instance.
type Machine struct {
	//spurlint:ignore statecomplete — the spec itself; sample keys snapshots by config hash instead of serializing it
	Cfg   Config
	Ctr   *counters.Set
	Cache *cache.Cache
	Table *pte.Table
	//spurlint:ignore statecomplete — stateless in-cache translation unit, rebuilt when the machine is wired
	X      *xlate.Unit
	Pool   *mem.Pool
	Pager  *vm.Pager
	Engine *core.Engine
	//spurlint:ignore statecomplete — fault-injection harness configuration; experiments never checkpoint under injection
	Inject *faultinject.Injector

	// Segment allocation is a pure function of the workload stream: replaying
	// the recorded warm-up prefix (sample.MachineState.Refs) reconstructs it.
	//spurlint:ignore statecomplete — rebuilt by replaying the warm-up reference stream
	segNext addr.SegmentID
	//spurlint:ignore statecomplete — rebuilt by replaying the warm-up reference stream
	segFree []addr.SegmentID

	//spurlint:ignore statecomplete — rebuilt by replaying the warm-up reference stream
	refs int64
}

var _ workload.Env = (*Machine)(nil)

// New assembles a machine.
func New(cfg Config) *Machine {
	if cfg.MemoryBytes <= 0 || cfg.CacheBytes <= 0 {
		panic("machine: config missing sizes")
	}
	ctr := counters.New()
	c := cache.New(cfg.CacheBytes)
	tbl := pte.NewTable(PTESegment)
	x := xlate.New(tbl, c, ctr, cfg.Timing)
	pool := mem.PoolForBytes(cfg.MemoryBytes, cfg.WiredFrames)
	pager := vm.NewPager(pool, ctr, cfg.Timing)
	e := core.NewEngine(c, x, pager, ctr, cfg.Timing, cfg.Dirty, cfg.Ref)
	e.TagCheckFlush = cfg.TagCheckFlush
	inj := faultinject.New(cfg.Faults...)
	if inj.Active() {
		// Only fault-plan runs pay for injection checks on the hot path;
		// a nil *faultinject.Injector is valid and inert, so the common
		// no-faults configuration leaves the engine and pager unwired.
		e.Inject = inj
		pager.Inject = inj
	}
	return &Machine{
		Cfg: cfg, Ctr: ctr, Cache: c, Table: tbl, X: x,
		Pool: pool, Pager: pager, Engine: e, Inject: inj,
		segNext: KernelSegment + 1,
	}
}

// AddRegion implements workload.Env.
func (m *Machine) AddRegion(start addr.GVPN, n int, kind vm.PageKind) vm.Region {
	return m.Pager.AddRegion(start, n, kind)
}

// ReleaseRegion implements workload.Env.
func (m *Machine) ReleaseRegion(r vm.Region) { m.Pager.ReleaseRegion(r) }

// AllocSegment implements workload.Env.
func (m *Machine) AllocSegment() addr.SegmentID {
	if n := len(m.segFree); n > 0 {
		s := m.segFree[n-1]
		m.segFree = m.segFree[:n-1]
		return s
	}
	if m.segNext >= PTESegment {
		panic("machine: global segment space exhausted")
	}
	s := m.segNext
	m.segNext++
	return s
}

// FreeSegment implements workload.Env.
func (m *Machine) FreeSegment(s addr.SegmentID) {
	if s == KernelSegment || s >= PTESegment {
		panic(fmt.Sprintf("machine: freeing reserved segment %d", s))
	}
	m.segFree = append(m.segFree, s)
}

// Result summarizes one run.
type Result struct {
	// Events is the paper's event vocabulary for the run.
	Events core.Events
	// Pager is the raw pager statistics (Table 3.5 columns).
	Pager vm.Stats
	// Cycles is total machine time; ElapsedSeconds its wall-clock
	// equivalent at the prototype's 150 ns cycle.
	Cycles         uint64
	ElapsedSeconds float64
	// Refs is how many references actually ran.
	Refs int64
}

// bindRunnable connects a source's runnable-process count to the pager, so
// page-in stalls overlap with other processes' work.
func bindRunnable(p *vm.Pager, src trace.Source) {
	if r, ok := src.(interface{ Runnable() int }); ok {
		p.Runnable = r.Runnable
	}
}

// runBatchSize is the most records the run loop buffers per source fill.
// 4096 16-byte records are 64 KiB (sixteen pages): small enough to stay in
// the L2 cache, large enough to amortize the source and engine dispatch to
// one call in a few thousand.
const runBatchSize = 4096

// Run drives up to n references from src through the engine and returns the
// run summary. Counters are not reset, so successive Runs accumulate; use a
// fresh Machine per experiment. Sources that report their runnable process
// count (like workload scripts) let the pager overlap page-in stalls with
// other processes' work. Run is the run loop with no hooks; RunHardened is
// the same loop under panic recovery, audits and a deadline.
func (m *Machine) Run(src trace.BatchSource, n int64) Result {
	m.run(&runLoop{}, src, n)
	return m.Snapshot()
}

// runLoop is the state of one call of the run loop: its hooks, the batch
// in hand and where the engine is in it, and the records carried over from
// the previous batch. A run that stops early leaves it describing exactly
// where, which is all a failure report needs.
type runLoop struct {
	// opts arms the hooks — an invariant audit every AuditEvery
	// references, a check of deadline every deadlineStride — and shapes
	// failure reports. Run's zero value arms nothing.
	opts     RunOptions
	deadline time.Time

	batch []trace.Rec // the batch in hand; nil between batches
	acc   int         // records of batch the engine has completed and counted
	busy  bool        // a chunk of batch is in the engine
	at    int         // the engine's position in that chunk

	tailN int         // records a failure report keeps
	tail  []trace.Rec // the last tailN records before batch
}

// run is the one run loop. It fills a buffer of min(n, runBatchSize)
// records, cuts each batch into chunks that end exactly at the next audit
// point and the next deadline check, hands each chunk to
// Engine.AccessBatchAt and runs the hooks between chunks. It returns the
// failure a hook reports.
func (m *Machine) run(l *runLoop, src trace.BatchSource, n int64) *RunFailure {
	bindRunnable(m.Pager, src)
	if n <= 0 {
		return nil
	}
	buf := make([]trace.Rec, min(n, runBatchSize))
	for i := int64(0); i < n; {
		k := src.NextBatch(buf[:min(n-i, int64(len(buf)))])
		if k == 0 {
			break
		}
		l.batch = buf[:k]
		for l.acc < k {
			end := k
			if d := l.untilHook(i); d < int64(k-l.acc) {
				end = l.acc + int(d)
			}
			l.busy = true
			m.Engine.AccessBatchAt(l.batch[l.acc:end], &l.at)
			l.busy = false
			m.refs += int64(end - l.acc)
			i += int64(end - l.acc)
			l.acc = end
			if f := m.hooks(l, i); f != nil {
				return f
			}
		}
		l.carry()
	}
	return nil
}

// untilHook returns how many references remain before the next hook is
// due, counting from position i of the run.
func (l *runLoop) untilHook(i int64) int64 {
	d := int64(math.MaxInt64)
	if every := l.opts.AuditEvery; every > 0 {
		d = every - i%every
	}
	if !l.deadline.IsZero() {
		d = min(d, deadlineStride-i%deadlineStride)
	}
	return d
}

// carry keeps the last tailN records of the finished batch, together with
// what was carried before when the batch is shorter than that.
func (l *runLoop) carry() {
	b := l.batch
	if len(b) >= l.tailN {
		l.tail = append(l.tail[:0], b[len(b)-l.tailN:]...)
	} else {
		if over := len(l.tail) + len(b) - l.tailN; over > 0 {
			l.tail = l.tail[:copy(l.tail, l.tail[over:])]
		}
		l.tail = append(l.tail, b...)
	}
	l.batch, l.acc = nil, 0
}

// failureTail returns the last tailN records the run fed the engine, oldest
// first, up to and including the record a panic stopped it at.
func (l *runLoop) failureTail() []trace.Rec {
	upto := l.acc
	if l.busy {
		upto += l.at + 1
	}
	recent := l.batch[:upto]
	keep := min(len(l.tail), max(l.tailN-len(recent), 0))
	recent = recent[max(len(recent)-l.tailN, 0):]
	out := make([]trace.Rec, 0, keep+len(recent))
	out = append(out, l.tail[len(l.tail)-keep:]...)
	return append(out, recent...)
}

// Snapshot returns the machine's cumulative result.
func (m *Machine) Snapshot() Result {
	elapsed := m.Engine.ElapsedSeconds()
	return Result{
		Events:         core.EventsFrom(m.Ctr, m.Pager.Stats, elapsed),
		Pager:          m.Pager.Stats,
		Cycles:         m.Engine.TotalCycles(),
		ElapsedSeconds: elapsed,
		Refs:           m.refs,
	}
}

// RunSpec assembles a fresh machine for cfg, instantiates the workload spec
// on it, and runs the configured reference budget.
func RunSpec(cfg Config, spec workload.Spec) Result {
	m := New(cfg)
	script := workload.NewScript(m, cfg.Seed, spec)
	return m.Run(script, cfg.TotalRefs)
}
