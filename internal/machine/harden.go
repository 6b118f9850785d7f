package machine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/faultinject"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the hardened experiment runner. The plain Run assumes every
// component behaves perfectly and lets a single panic or invariant breach
// kill an entire multi-hour sweep; the hardened runner converts crashes into
// structured RunFailure artifacts (config + seed + last-N trace records, a
// reproducible-by-construction bundle), audits the machine's cross-structure
// invariants continuously instead of only post-run, and enforces per-run
// wall-clock deadlines — so a sweep quarantines a bad run and completes.

// FailureKind classifies how a hardened run died.
type FailureKind string

const (
	// FailPanic is a recovered crash (including vm.IOError exhaustion).
	FailPanic FailureKind = "panic"
	// FailAudit is a continuous-audit invariant breach.
	FailAudit FailureKind = "audit"
	// FailDeadline is a per-run wall-clock budget overrun.
	FailDeadline FailureKind = "deadline"
)

// RunOptions hardens one run: invariant-audit cadence, a wall-clock
// deadline, and what a failure's repro bundle should capture. The zero
// value is a plain run (final audit only, no deadline, default trace tail).
// None of the knobs affect simulated decisions, so hardened results are
// bit-identical to unhardened ones; the spurd daemon accepts the same
// knobs on the wire as repro/pkg/client.HardenedOptions.
type RunOptions struct {
	// AuditEvery invokes Audit every N references (continuous invariant
	// auditing). Zero disables mid-run audits; a final audit still runs.
	AuditEvery int64
	// Deadline is the per-run wall-clock budget; zero means none. The
	// deadline affects only where a run is cut off, never the simulated
	// decisions, so partial results stay deterministic per reference.
	Deadline time.Duration
	// TraceTail is how many trailing trace records the repro bundle
	// keeps (default 64).
	TraceTail int
	// ArtifactDir, when set, receives a JSON repro bundle per failure.
	ArtifactDir string
	// SkipFinalAudit disables the end-of-run audit (for callers that
	// audit on their own cadence).
	SkipFinalAudit bool
}

const defaultTraceTail = 64

// deadlineStride is how many references pass between wall-clock checks.
const deadlineStride = 4096

// RunFailure is the structured artifact of a failed hardened run: enough to
// reproduce the failure bit-for-bit (the config embeds the workload seed and
// the fault-injection plans) plus the trailing trace records and the
// injection log for diagnosis without a rerun.
type RunFailure struct {
	Kind   FailureKind `json:"kind"`
	Reason string      `json:"reason"`
	// Config reproduces the run: machine geometry, policies, Seed, and
	// the deterministic fault-injection plans.
	Config Config `json:"config"`
	Seed   uint64 `json:"seed"`
	// Refs is how many references completed before the failure.
	Refs int64 `json:"refs"`
	// Tail is the last-N trace records leading into the failure.
	Tail []trace.Rec `json:"tail,omitempty"`
	// Injections is the fault injector's record of what actually fired.
	Injections []faultinject.Record `json:"injections,omitempty"`
	// Stack is the recovered goroutine stack (panics only).
	Stack string `json:"stack,omitempty"`
	// BundlePath is where the bundle was written, if anywhere.
	BundlePath string `json:"-"`
}

// Error implements error.
func (f *RunFailure) Error() string {
	return fmt.Sprintf("run failed (%s) after %d refs: %s", f.Kind, f.Refs, f.Reason)
}

// WriteBundle writes the failure as an indented JSON repro bundle under dir,
// creating the directory if needed, and records the path in BundlePath. The
// filename is derived from the run configuration; collisions get a numeric
// suffix so sweep repetitions never clobber each other.
func (f *RunFailure) WriteBundle(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := fmt.Sprintf("runfailure-%s-%s-%dmb-seed%d-%s",
		f.Config.Dirty, f.Config.Ref, f.Config.MemoryBytes>>20, f.Seed, f.Kind)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	for i := 0; ; i++ {
		name := base + ".json"
		if i > 0 {
			name = fmt.Sprintf("%s-%d.json", base, i)
		}
		path := filepath.Join(dir, name)
		w, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, werr := w.Write(data)
		// Bundles exist to survive the crash that produced them; fsync so
		// a dying process (or machine) cannot take the evidence with it.
		serr := w.Sync()
		cerr := w.Close()
		if werr != nil {
			return "", werr
		}
		if serr != nil {
			return "", serr
		}
		if cerr != nil {
			return "", cerr
		}
		f.BundlePath = path
		return path, nil
	}
}

// failure assembles a RunFailure for this machine and writes the bundle if
// opts asks for one (a bundle-write error is reported in Reason rather than
// masking the original failure).
func (m *Machine) failure(kind FailureKind, reason string, stack string, tail []trace.Rec, opts RunOptions) *RunFailure {
	f := &RunFailure{
		Kind:       kind,
		Reason:     reason,
		Config:     m.Cfg,
		Seed:       m.Cfg.Seed,
		Refs:       m.refs,
		Tail:       tail,
		Injections: m.Inject.Log(),
		Stack:      stack,
	}
	if opts.ArtifactDir != "" {
		if _, err := f.WriteBundle(opts.ArtifactDir); err != nil {
			f.Reason += fmt.Sprintf(" (bundle write failed: %v)", err)
		}
	}
	return f
}

// hooks runs the audit and the deadline check due at position i of the run
// (the audit first when both fall there) and returns the failure either
// reports.
func (m *Machine) hooks(l *runLoop, i int64) *RunFailure {
	if every := l.opts.AuditEvery; every > 0 && i%every == 0 {
		if err := Audit(m); err != nil {
			return m.failure(FailAudit, err.Error(), "", l.failureTail(), l.opts)
		}
	}
	//spurlint:ignore determinism — wall clock only aborts the run; it cannot alter any simulated value
	if !l.deadline.IsZero() && i%deadlineStride == 0 && time.Now().After(l.deadline) {
		return m.failure(FailDeadline,
			fmt.Sprintf("run exceeded its %v budget", l.opts.Deadline), "", l.failureTail(), l.opts)
	}
	return nil
}

// RunHardened drives up to n references from src through the engine under
// panic recovery, continuous invariant auditing, and an optional wall-clock
// deadline. It always returns the cumulative snapshot; a non-nil RunFailure
// reports why the run stopped early. Counters accumulate across calls, as
// with Run. It is Run's loop with the hooks armed: audits and deadline
// checks fall between engine chunks at exactly the references a
// per-record loop would run them after, and a failure's trace tail is
// assembled only when the run fails, so a hardened run is bit-for-bit a
// plain one until something goes wrong.
func (m *Machine) RunHardened(src trace.BatchSource, n int64, opts RunOptions) (Result, *RunFailure) {
	l := &runLoop{opts: opts, tailN: opts.TraceTail}
	if l.tailN <= 0 {
		l.tailN = defaultTraceTail
	}
	// The deadline reads the wall clock, which is normally banned in model
	// code: simulated results must be a pure function of the spec. It is
	// safe here because the clock decides only *whether the run is cut
	// off*, never any simulated value — a run that beats its deadline is
	// bit-identical to an unhardened run, and one that doesn't returns a
	// FailDeadline artifact, not a result row (the daemon's store never
	// caches failures as results).
	if opts.Deadline > 0 {
		l.deadline = time.Now().Add(opts.Deadline) //spurlint:ignore determinism — wall clock only aborts the run; it cannot alter any simulated value
	}

	var fail *RunFailure
	func() {
		defer func() {
			if r := recover(); r != nil {
				if l.busy {
					// The records before the one that panicked completed.
					m.refs += int64(l.at)
				}
				fail = m.failure(FailPanic, fmt.Sprint(r), string(debug.Stack()), l.failureTail(), opts)
			}
		}()
		if fail = m.run(l, src, n); fail != nil {
			return
		}
		if !opts.SkipFinalAudit {
			if err := Audit(m); err != nil {
				fail = m.failure(FailAudit, "post-run: "+err.Error(), "", l.failureTail(), opts)
			}
		}
	}()
	return m.Snapshot(), fail
}

// RunSpecHardened assembles a fresh machine for cfg, instantiates the
// workload spec on it, and runs the configured reference budget under the
// hardened runner. Machine and workload construction are guarded too: a
// panicking constructor yields a RunFailure instead of killing the caller.
func RunSpecHardened(cfg Config, spec workload.Spec, opts RunOptions) (res Result, fail *RunFailure) {
	var m *Machine
	var script *workload.Script
	func() {
		defer func() {
			if r := recover(); r != nil {
				fail = &RunFailure{
					Kind: FailPanic, Reason: "setup: " + fmt.Sprint(r),
					Config: cfg, Seed: cfg.Seed, Stack: string(debug.Stack()),
				}
				if opts.ArtifactDir != "" {
					if _, err := fail.WriteBundle(opts.ArtifactDir); err != nil {
						fail.Reason += fmt.Sprintf(" (bundle write failed: %v)", err)
					}
				}
			}
		}()
		m = New(cfg)
		script = workload.NewScript(m, cfg.Seed, spec)
	}()
	if fail != nil {
		return Result{}, fail
	}
	return m.RunHardened(script, cfg.TotalRefs, opts)
}
