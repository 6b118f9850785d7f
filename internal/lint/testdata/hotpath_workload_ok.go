//spurlint:path repro/internal/workload

// Positive hot-path fixture for the generator: decisions compare a draw
// against thresholds held in a struct, computed once outside the hot path
// from a by-name table.
package fixture

// RNG mimics the workload generator.
type RNG struct{ state uint64 }

// Uint64 is a designated hot-path function.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return r.state
}

// below is a designated hot-path function.
func (r *RNG) below(t uint64) bool { return r.Uint64()>>11 < t }

type thresholds struct{ ifetch, jump uint64 }

// Job mimics a synthetic process.
type Job struct {
	rng     RNG
	t       thresholds
	codeIdx int
}

// newJob converts the by-name probabilities once; it is not on the hot path.
func newJob(probs map[string]uint64) *Job {
	return &Job{t: thresholds{ifetch: probs["ifetch"], jump: probs["jump"]}}
}

// Step is a designated hot-path function on struct state.
func (j *Job) Step() int {
	if j.rng.below(j.t.ifetch) {
		return j.ifetch()
	}
	return -1
}

// ifetch is a designated hot-path function on struct state.
func (j *Job) ifetch() int {
	if j.rng.below(j.t.jump) {
		j.codeIdx = 0
	}
	j.codeIdx++
	return j.codeIdx
}
