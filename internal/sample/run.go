package sample

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/addr"
	"repro/internal/counters"
	"repro/internal/journal"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Variant is one machine configuration measured over the shared stream. The
// runner overrides Cfg.Seed and Cfg.TotalRefs with the group's stream seed
// and the plan's length: a variant differs in policy, memory size, cache
// geometry — anything except the stream itself.
type Variant struct {
	Name string         `json:"name"`
	Cfg  machine.Config `json:"cfg"`
}

// IntervalMetrics is the simulated delta over one representative interval:
// counter shadow, pager statistics and total machine cycles, all as
// (end − start) differences, plus the references simulated.
type IntervalMetrics struct {
	Shadow [counters.NumEvents]uint64 `json:"shadow"`
	Pager  vm.Stats                   `json:"pager"`
	Cycles uint64                     `json:"cycles"`
	Refs   int64                      `json:"refs"`
}

// Measured is one variant's per-interval metric deltas, indexed like
// Plan.Chosen, plus the exact delta over the plan's cold-start prefix
// (zero-valued when the plan has no prefix) and the machine's cumulative
// totals at the end of the whole warmed timeline. Because the stream is
// functionally warmed between representative intervals, Final's VM-event
// counts (faults, page-ins, teardown flushes) cover every reference of the
// run — they are whole-run counts, not extrapolations.
type Measured struct {
	Variant   string            `json:"variant"`
	Prefix    IntervalMetrics   `json:"prefix"`
	Final     IntervalMetrics   `json:"final"`
	Intervals []IntervalMetrics `json:"intervals"`
}

// MeasureOptions configures the measuring pass.
type MeasureOptions struct {
	// Warmup is how many references to simulate before each representative
	// interval to refresh cache and resident-set state.
	Warmup int64
	// JournalPath, when set, records a snapshot of every variant at each
	// interval start plus every measured interval's metrics, through
	// internal/journal's CRC-framed fsynced writer. With Resume, an
	// existing journal is replayed: finished intervals are served from it
	// and simulation restarts from the last intact snapshot.
	JournalPath string
	Resume      bool
	// Kind, SpecKey and Version fill the journal header (and are validated
	// on resume, so a journal cannot be replayed against a different
	// sampled experiment).
	Kind    string
	SpecKey string
	Version string
}

// journalRec is one journal frame of a sampled run (after the header): the
// plan record, a variant snapshot at an interval start, a variant's measured
// interval metrics, a variant's exact cold-start prefix metrics, or a
// variant's end-of-run cumulative totals.
type journalRec struct {
	Type     string           `json:"type"` // "plan" | "snap" | "metrics" | "prefix" | "final"
	Interval int              `json:"interval,omitempty"`
	Variant  int              `json:"variant,omitempty"`
	Plan     *planRec         `json:"plan,omitempty"`
	Snap     *MachineState    `json:"snap,omitempty"`
	Metrics  *IntervalMetrics `json:"metrics,omitempty"`
}

// planRec pins everything that shapes a sampled run, so a resumed journal
// is provably from the same experiment.
type planRec struct {
	Seed     uint64    `json:"seed"`
	Warmup   int64     `json:"warmup"`
	Plan     Plan      `json:"plan"`
	Variants []Variant `json:"variants"`
}

// statsDiff returns a − b field by field.
func statsDiff(a, b vm.Stats) vm.Stats {
	return vm.Stats{
		PageIns:               a.PageIns - b.PageIns,
		PageOuts:              a.PageOuts - b.PageOuts,
		Reclaims:              a.Reclaims - b.Reclaims,
		ZeroFills:             a.ZeroFills - b.ZeroFills,
		Scans:                 a.Scans - b.Scans,
		WritablePageOuts:      a.WritablePageOuts - b.WritablePageOuts,
		CleanWritablePageOuts: a.CleanWritablePageOuts - b.CleanWritablePageOuts,
		ZFODForcedWrites:      a.ZFODForcedWrites - b.ZFODForcedWrites,
		IORetries:             a.IORetries - b.IORetries,
	}
}

// baseline is the pre-interval reading the deltas subtract.
type baseline struct {
	shadow [counters.NumEvents]uint64
	pager  vm.Stats
	cycles uint64
}

func readBaseline(m *machine.Machine) baseline {
	return baseline{shadow: m.Ctr.Snapshot(), pager: m.Pager.Stats, cycles: m.Engine.TotalCycles()}
}

// multiEnv fans one workload's environment calls out to every variant
// machine, so a single generated stream drives them all. The machines see
// identical call sequences, so their segment allocators answer identically;
// a divergence means variant construction differed and is a hard error.
type multiEnv struct{ ms []*machine.Machine }

func (e multiEnv) AddRegion(start addr.GVPN, n int, kind vm.PageKind) vm.Region {
	r := e.ms[0].AddRegion(start, n, kind)
	for _, m := range e.ms[1:] {
		m.AddRegion(start, n, kind)
	}
	return r
}

func (e multiEnv) ReleaseRegion(r vm.Region) {
	for _, m := range e.ms {
		m.ReleaseRegion(r)
	}
}

func (e multiEnv) AllocSegment() addr.SegmentID {
	s := e.ms[0].AllocSegment()
	for _, m := range e.ms[1:] {
		if got := m.AllocSegment(); got != s {
			panic(fmt.Sprintf("sample: variant machines diverged on segment allocation (%d vs %d)", got, s))
		}
	}
	return s
}

func (e multiEnv) FreeSegment(s addr.SegmentID) {
	for _, m := range e.ms {
		m.FreeSegment(s)
	}
}

var _ workload.Env = multiEnv{}

// resumeState is what a replayed journal contributes: already-measured
// metrics, the interval to restart from, and the snapshots to restart with.
type resumeState struct {
	metrics [][]*IntervalMetrics // [interval][variant]
	prefix  []*IntervalMetrics   // [variant] exact prefix deltas, if journaled
	final   []*IntervalMetrics   // [variant] end-of-run totals, if journaled
	from    int                  // first interval to simulate
	snaps   []*MachineState      // all-variant snapshots at `from`, or nil
}

// replayJournal validates a replayed sampled-run journal against this run's
// plan record and extracts the resume state.
func replayJournal(entries [][]byte, want planRec, nv, nc int) (resumeState, error) {
	rs := resumeState{
		metrics: make([][]*IntervalMetrics, nc),
		prefix:  make([]*IntervalMetrics, nv),
		final:   make([]*IntervalMetrics, nv),
	}
	for i := range rs.metrics {
		rs.metrics[i] = make([]*IntervalMetrics, nv)
	}
	snaps := make([][]*MachineState, nc)
	for i := range snaps {
		snaps[i] = make([]*MachineState, nv)
	}
	sawPlan := false
	for i, b := range entries {
		var rec journalRec
		if err := json.Unmarshal(b, &rec); err != nil {
			return rs, fmt.Errorf("sample: journal record %d: %w", i, err)
		}
		switch rec.Type {
		case "plan":
			if rec.Plan == nil {
				return rs, fmt.Errorf("sample: journal record %d: plan record without plan", i)
			}
			got, err1 := json.Marshal(*rec.Plan)
			exp, err2 := json.Marshal(want)
			if err1 != nil || err2 != nil || !bytes.Equal(got, exp) {
				return rs, fmt.Errorf("sample: journal was written for a different sampled run (plan mismatch); refusing to mix results")
			}
			sawPlan = true
		case "snap", "metrics":
			if rec.Interval < 0 || rec.Interval >= nc || rec.Variant < 0 || rec.Variant >= nv {
				return rs, fmt.Errorf("sample: journal record %d: coordinates (%d,%d) outside the %d-interval × %d-variant design", i, rec.Interval, rec.Variant, nc, nv)
			}
			if rec.Type == "snap" {
				snaps[rec.Interval][rec.Variant] = rec.Snap
			} else {
				rs.metrics[rec.Interval][rec.Variant] = rec.Metrics
			}
		case "prefix", "final":
			if rec.Variant < 0 || rec.Variant >= nv {
				return rs, fmt.Errorf("sample: journal record %d: %s for variant %d outside the %d-variant design", i, rec.Type, rec.Variant, nv)
			}
			if rec.Type == "prefix" {
				rs.prefix[rec.Variant] = rec.Metrics
			} else {
				rs.final[rec.Variant] = rec.Metrics
			}
		default:
			return rs, fmt.Errorf("sample: journal record %d: unknown type %q", i, rec.Type)
		}
	}
	if !sawPlan {
		return rs, fmt.Errorf("sample: journal holds no plan record; refusing to resume")
	}
	// done is the longest prefix of fully measured intervals; the restart
	// point is the latest interval ≤ done where every variant has an intact
	// snapshot (re-measuring from there reproduces the tail bit for bit).
	done := 0
	for done < nc {
		full := true
		for v := 0; v < nv; v++ {
			if rs.metrics[done][v] == nil {
				full = false
				break
			}
		}
		if !full {
			break
		}
		done++
	}
	finalDone := true
	for _, f := range rs.final {
		if f == nil {
			finalDone = false
			break
		}
	}
	if done == nc && finalDone {
		rs.from = nc
	} else {
		// If only the end-of-run totals are missing, the last interval is
		// redone from its snapshot so the tail can be re-warmed.
		limit := done
		if limit == nc {
			limit = nc - 1
		}
		rs.from = 0
		for ci := limit; ci >= 0; ci-- {
			full := true
			for v := 0; v < nv; v++ {
				if snaps[ci][v] == nil {
					full = false
					break
				}
			}
			if full {
				rs.from = ci
				rs.snaps = snaps[ci]
				break
			}
		}
	}
	// A mid-run restart replays the prefix deltas from the journal rather
	// than re-simulating [0, Prefix); if any variant's prefix frame was
	// torn, the only faithful option is a cold restart.
	if want.Plan.Prefix > 0 {
		for _, p := range rs.prefix {
			if p == nil {
				rs.from = 0
				rs.snaps = nil
				break
			}
		}
	}
	return rs, nil
}

// measureBatch is the measuring pass's generation buffer size in records.
// Every batch is read once per variant — 12 machines for a policy × memory
// grid — so the buffer must stay in L1 across the whole fan-out instead of
// being re-read from L2 by each machine in turn. 256 records are 4 KiB,
// leaving nearly all of a 32–48 KiB L1d to the cache tags, line metadata
// and PTE chunks the machines touch. On a 2-vCPU Xeon (48 KiB L1d),
// BenchmarkMemorySweepSampledFanout's median ns per variant-reference was
// 37.9 at 256 records, 38.0 at 128, 39.8 at 512, 41.3 at 1,024, 47.5 at
// 2,048 and 48.9 at 4,096 (64 KiB). The size only moves batch boundaries,
// never what a machine sees, so the estimates are byte-identical at any
// value.
const measureBatch = 256

// Measure runs the measuring pass: one generated stream drives every
// variant machine through warmup plus each representative interval, and the
// per-interval metric deltas come back per variant. Between intervals the
// stream is generated but not simulated; machine state persists across the
// gap and the next warmup refreshes it.
//
// With a JournalPath, every interval start appends one snapshot frame per
// variant and every measured interval one metrics frame per variant, fsynced
// through internal/journal; Resume replays finished work and restarts
// simulation from the last interval whose snapshots are all intact, with
// results byte-identical to an uninterrupted run.
func Measure(spec workload.Spec, streamSeed uint64, plan Plan, variants []Variant, opts MeasureOptions) ([]Measured, error) {
	nv, nc := len(variants), len(plan.Chosen)
	if nv == 0 {
		return nil, fmt.Errorf("sample: no variants to measure")
	}
	for _, v := range variants {
		if err := validateNoFaults(v.Cfg); err != nil {
			return nil, err
		}
	}

	prec := planRec{Seed: streamSeed, Warmup: opts.Warmup, Plan: plan, Variants: variants}
	rs := resumeState{metrics: make([][]*IntervalMetrics, nc)}
	for i := range rs.metrics {
		rs.metrics[i] = make([]*IntervalMetrics, nv)
	}
	var jw *journal.Writer
	if opts.JournalPath != "" {
		kind := opts.Kind
		if kind == "" {
			kind = "sample"
		}
		hdr := journal.Header{Kind: kind, SpecKey: opts.SpecKey, Version: opts.Version}
		if opts.Resume {
			w, rep, err := journal.Open(opts.JournalPath)
			if err != nil {
				return nil, err
			}
			if rep.Header != hdr {
				_ = w.Close() // refusing the journal; nothing was written
				return nil, fmt.Errorf("sample: journal %s was written for a different experiment: kind=%q spec=%.12s… version=%q, this run kind=%q spec=%.12s… version=%q",
					opts.JournalPath, rep.Header.Kind, rep.Header.SpecKey, rep.Header.Version, hdr.Kind, hdr.SpecKey, hdr.Version)
			}
			rs, err = replayJournal(rep.Entries, prec, nv, nc)
			if err != nil {
				_ = w.Close() // refusing the journal; nothing was written
				return nil, err
			}
			jw = w
		} else {
			w, err := journal.Create(opts.JournalPath, hdr)
			if err != nil {
				return nil, err
			}
			jw = w
			if err := appendRec(jw, journalRec{Type: "plan", Plan: &prec}); err != nil {
				return nil, err
			}
		}
	}

	out := make([]Measured, nv)
	for vi := range out {
		out[vi] = Measured{Variant: variants[vi].Name, Intervals: make([]IntervalMetrics, nc)}
	}
	for ci := 0; ci < rs.from; ci++ {
		for vi := 0; vi < nv; vi++ {
			out[vi].Intervals[ci] = *rs.metrics[ci][vi]
		}
	}
	havePrefix := plan.Prefix == 0
	if !havePrefix && len(rs.prefix) == nv {
		havePrefix = true
		for _, p := range rs.prefix {
			if p == nil {
				havePrefix = false
				break
			}
		}
		if havePrefix {
			for vi := range out {
				out[vi].Prefix = *rs.prefix[vi]
			}
		}
	}
	haveFinal := false
	if len(rs.final) == nv {
		haveFinal = true
		for _, f := range rs.final {
			if f == nil {
				haveFinal = false
				break
			}
		}
		if haveFinal {
			for vi := range out {
				out[vi].Final = *rs.final[vi]
			}
		}
	}
	if rs.from == nc && havePrefix && haveFinal {
		// Everything was already measured; nothing to simulate.
		if jw != nil {
			return out, jw.Close()
		}
		return out, nil
	}

	ms := make([]*machine.Machine, nv)
	for i, v := range variants {
		cfg := v.Cfg
		cfg.Seed = streamSeed
		cfg.TotalRefs = plan.TotalRefs
		ms[i] = machine.New(cfg)
	}
	script := workload.NewScript(multiEnv{ms}, streamSeed, spec)
	for _, m := range ms {
		m.Pager.Runnable = script.Runnable
	}

	// Generation modes: skip regenerates the stream with no machine effects
	// beyond the environment calls (used only up to a snapshot about to be
	// restored on top); warm advances VM state functionally through
	// Engine.Touch; sim is full simulation.
	const (
		genSkip = iota
		genWarm
		genSim
	)
	var pos int64
	buf := make([]trace.Rec, measureBatch)
	gen := func(target int64, mode int) error {
		for pos < target {
			n := target - pos
			if n > measureBatch {
				n = measureBatch
			}
			k := script.NextBatch(buf[:n])
			if k == 0 {
				return fmt.Errorf("sample: workload stream ended at %d references (plan needs %d)", pos, target)
			}
			switch mode {
			case genSim:
				for _, m := range ms {
					m.Engine.AccessBatch(buf[:k])
				}
			case genWarm:
				for _, m := range ms {
					m.Engine.TouchBatch(buf[:k])
				}
			}
			pos += int64(k)
		}
		return nil
	}

	bases := make([]baseline, nv)
	if plan.Prefix > 0 && rs.snaps == nil {
		// Cold start: simulate [0, Prefix) exactly from reference zero, so
		// the startup transient is counted rather than extrapolated. On a
		// snapshot restart the prefix deltas come from the journal instead
		// (replayJournal forces a cold restart when they were torn).
		for vi, m := range ms {
			bases[vi] = readBaseline(m)
		}
		if err := gen(plan.Prefix, genSim); err != nil {
			return nil, err
		}
		for vi, m := range ms {
			after := readBaseline(m)
			im := IntervalMetrics{
				Shadow: counters.Diff(after.shadow, bases[vi].shadow),
				Pager:  statsDiff(after.pager, bases[vi].pager),
				Cycles: after.cycles - bases[vi].cycles,
				Refs:   plan.Prefix,
			}
			out[vi].Prefix = im
			if jw != nil {
				if err := appendRec(jw, journalRec{Type: "prefix", Variant: vi, Metrics: &im}); err != nil {
					return nil, err
				}
			}
		}
	}

	restored := -1
	if rs.snaps != nil {
		start := int64(plan.Chosen[rs.from].Index) * plan.IntervalLen
		if err := gen(start, genSkip); err != nil {
			return nil, err
		}
		for vi, m := range ms {
			if rs.snaps[vi].Refs != start {
				return nil, fmt.Errorf("sample: snapshot for variant %d is at ref %d, interval starts at %d", vi, rs.snaps[vi].Refs, start)
			}
			if err := Restore(m, rs.snaps[vi]); err != nil {
				return nil, err
			}
		}
		restored = rs.from
	}

	for ci := rs.from; ci < nc; ci++ {
		start := int64(plan.Chosen[ci].Index) * plan.IntervalLen
		if ci != restored {
			warmStart := start - opts.Warmup
			if warmStart < pos {
				warmStart = pos
			}
			if err := gen(warmStart, genWarm); err != nil {
				return nil, err
			}
			if err := gen(start, genSim); err != nil {
				return nil, err
			}
			if jw != nil {
				for vi, m := range ms {
					if err := appendRec(jw, journalRec{Type: "snap", Interval: ci, Variant: vi, Snap: Capture(m, start)}); err != nil {
						return nil, err
					}
				}
			}
		}
		for vi, m := range ms {
			bases[vi] = readBaseline(m)
		}
		if err := gen(start+plan.IntervalLen, genSim); err != nil {
			return nil, err
		}
		for vi, m := range ms {
			after := readBaseline(m)
			im := IntervalMetrics{
				Shadow: counters.Diff(after.shadow, bases[vi].shadow),
				Pager:  statsDiff(after.pager, bases[vi].pager),
				Cycles: after.cycles - bases[vi].cycles,
				Refs:   plan.IntervalLen,
			}
			out[vi].Intervals[ci] = im
			if jw != nil {
				if err := appendRec(jw, journalRec{Type: "metrics", Interval: ci, Variant: vi, Metrics: &im}); err != nil {
					return nil, err
				}
			}
		}
	}
	// Warm the tail past the last representative so Final's cumulative
	// VM-event counts cover the entire timeline [0, TotalRefs).
	if err := gen(plan.TotalRefs, genWarm); err != nil {
		return nil, err
	}
	for vi, m := range ms {
		t := readBaseline(m)
		fm := IntervalMetrics{Shadow: t.shadow, Pager: t.pager, Cycles: t.cycles, Refs: plan.TotalRefs}
		out[vi].Final = fm
		if jw != nil {
			if err := appendRec(jw, journalRec{Type: "final", Variant: vi, Metrics: &fm}); err != nil {
				return nil, err
			}
		}
	}
	if jw != nil {
		return out, jw.Close()
	}
	return out, nil
}

func appendRec(w *journal.Writer, rec journalRec) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sample: encoding journal record: %w", err)
	}
	return w.Append(b)
}
