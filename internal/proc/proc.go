// Package proc provides the process abstraction and the round-robin
// scheduler that interleaves the synthetic workloads' reference streams.
//
// SPUR processes share the global virtual address space (each gets distinct
// segments), so a context switch neither flushes nor tags the cache; the
// scheduler's only job is realistic interleaving, which is what makes the
// combined working set — not any single process's — contend for memory.
package proc

import "repro/internal/trace"

// Runner generates one process's reference stream.
type Runner interface {
	// Step emits the process's next reference.
	Step() trace.Rec
	// Done reports whether the process has finished its work. Once Done
	// returns true the scheduler reaps the task; Step is not called
	// again.
	Done() bool
}

// Horizoned is optionally implemented by Runners whose Step can mutate
// shared machine state — releasing a memory region, most importantly. Batch
// generation runs ahead of the machine consuming the references, so a
// release inside a half-filled batch would tear pages down *before* the
// machine replays the references that were generated while they existed.
//
// StepHorizon returns a lower bound on how many consecutive Step calls are
// guaranteed to neither mutate the environment nor run past Done: the
// scheduler may take that many steps blindly, with no per-step checks. A
// zero horizon means the very next step could mutate (or the task has
// finished); NextBatch then flushes what it has buffered so the mutating
// step only ever runs against an empty buffer, which puts the mutation at
// exactly the stream position the per-reference path gives it.
// Under-estimating the horizon is safe (it only costs extra flushes);
// over-estimating is not.
type Horizoned interface {
	StepHorizon() int64
}

// BatchStepper is optionally implemented by Horizoned Runners that can emit
// a run of steps with one call. StepBatch(buf, pid) must produce exactly the
// records len(buf) successive Step calls would, with PID set to pid as it
// writes each — it exists only to strip the per-step interface dispatch
// (and a second pass to stamp the PID) from the generation hot loop.
// Callers must bound len(buf) by StepHorizon(); the runner omits the
// per-step mutation and Done checks on the strength of that bound.
type BatchStepper interface {
	StepBatch(buf []trace.Rec, pid int32)
}

// Task is one schedulable process.
type Task struct {
	PID    int32
	Name   string
	Runner Runner
}

// Scheduler interleaves tasks round-robin with a fixed quantum of
// references.
type Scheduler struct {
	quantum int
	left    int
	cur     int
	tasks   []*Task

	// OnExit, if set, is called when a finished task is reaped (process
	// teardown: releasing its regions and segment).
	OnExit func(*Task)

	// Switches counts context switches.
	Switches uint64
}

// NewScheduler returns a scheduler with the given quantum (references per
// time slice).
func NewScheduler(quantum int) *Scheduler {
	if quantum <= 0 {
		panic("proc: quantum must be positive")
	}
	return &Scheduler{quantum: quantum, left: quantum}
}

// Add enqueues a task.
func (s *Scheduler) Add(t *Task) { s.tasks = append(s.tasks, t) }

// Len returns the number of live tasks.
func (s *Scheduler) Len() int { return len(s.tasks) }

// Tasks returns the live tasks (read-only view for inspection).
func (s *Scheduler) Tasks() []*Task { return s.tasks }

// Next returns the next reference in the interleaved stream, or false when
// every task has finished.
func (s *Scheduler) Next() (trace.Rec, bool) {
	for {
		if len(s.tasks) == 0 {
			return trace.Rec{}, false
		}
		if s.cur >= len(s.tasks) {
			s.cur = 0
		}
		t := s.tasks[s.cur]
		if t.Runner.Done() {
			s.reap(s.cur)
			continue
		}
		if s.left <= 0 {
			s.cur = (s.cur + 1) % len(s.tasks)
			s.left = s.quantum
			s.Switches++
			continue
		}
		s.left--
		r := t.Runner.Step()
		r.PID = t.PID
		return r, true
	}
}

// NextBatch fills buf with the next references of the interleaved stream and
// returns how many it produced (zero means every task has finished, never a
// spurious stall). The sequence is exactly what repeated Next calls would
// yield — Done is checked before every step, quantum expiry switches tasks at
// the same points, and reaping is identical — the batch form only exists so
// the inner stepping loop runs on a concrete Runner without per-reference
// dispatch overhead around it.
//
// Environment mutations must additionally keep their position relative to
// the *consumption* of the stream, not just its generation: reaping tears a
// task's regions down, and a Horizoned step can release a heap generation.
// Any buffered references were generated while those regions existed and
// have not been replayed yet, so the batch is returned (flushed) first and
// the mutating step or reap runs at the top of the next call, against an
// empty buffer — the same consume-then-release order the per-reference path
// has.
func (s *Scheduler) NextBatch(buf []trace.Rec) int {
	n := 0
	for n < len(buf) {
		if len(s.tasks) == 0 {
			return n
		}
		if s.cur >= len(s.tasks) {
			s.cur = 0
		}
		t := s.tasks[s.cur]
		if t.Runner.Done() {
			if n > 0 {
				return n // flush before the reap releases the task's regions
			}
			s.reap(s.cur)
			continue
		}
		if s.left <= 0 {
			s.cur = (s.cur + 1) % len(s.tasks)
			s.left = s.quantum
			s.Switches++
			continue
		}
		// Run the current task up to its quantum or the buffer's end. A
		// Horizoned runner vouches for stretches of steps that cannot
		// mutate the environment or finish, so those run in a tight loop
		// with no per-step checks; otherwise Done is re-checked before
		// each step exactly as Next does. Either way the emitted stream
		// is identical to repeated Next calls.
		run := t.Runner
		pid := t.PID
		hz, _ := run.(Horizoned)
		bs, _ := run.(BatchStepper)
		if hz == nil {
			for s.left > 0 && n < len(buf) && !run.Done() {
				s.left--
				r := run.Step()
				r.PID = pid
				buf[n] = r
				n++
			}
			continue
		}
		for s.left > 0 && n < len(buf) {
			h := hz.StepHorizon()
			if h <= 0 {
				if n > 0 {
					return n // flush before a step that may release a region
				}
				if run.Done() {
					break // reap at the top of the outer loop
				}
				// The possibly-mutating step itself runs against the
				// empty buffer — the same position the per-reference
				// path gives the mutation.
				h = 1
			}
			steps := int64(s.left)
			if b := int64(len(buf) - n); b < steps {
				steps = b
			}
			if h < steps {
				steps = h
			}
			s.left -= int(steps)
			if bs != nil {
				bs.StepBatch(buf[n:n+int(steps)], pid)
				n += int(steps)
				continue
			}
			for ; steps > 0; steps-- {
				r := run.Step()
				r.PID = pid
				buf[n] = r
				n++
			}
		}
	}
	return n
}

func (s *Scheduler) reap(i int) {
	t := s.tasks[i]
	s.tasks = append(s.tasks[:i], s.tasks[i+1:]...)
	if s.cur >= len(s.tasks) {
		s.cur = 0
	}
	s.left = s.quantum
	if s.OnExit != nil {
		s.OnExit(t)
	}
}
