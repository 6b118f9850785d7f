//spurlint:path repro/internal/workload

// Negative hot-path fixture for the generator: per-reference step and
// decision functions that look their probabilities up by name pay a hash
// on every reference the workload emits.
package fixture

// RNG mimics the workload generator.
type RNG struct{ state uint64 }

// Uint64 is a designated hot-path function.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return r.state
}

// below is a designated hot-path function; this one memoises per bound.
func (r *RNG) below(t uint64, seen map[uint64]int) bool {
	seen[t]++ // want hotpath "indexes a map"
	return r.Uint64()>>11 < t
}

// Job mimics a synthetic process with map-backed decision state.
type Job struct {
	rng   RNG
	probs map[string]uint64
	dirty map[uint64]bool
}

// Step is a designated hot-path function.
func (j *Job) Step() uint64 {
	if j.rng.Uint64()>>11 < j.probs["ifetch"] { // want hotpath "indexes a map"
		return j.ifetch()
	}
	return 0
}

// ifetch is a designated hot-path function.
func (j *Job) ifetch() uint64 {
	j.probs = map[string]uint64{"jump": 1} // want hotpath "builds a map literal"
	return 1
}

// scan is a designated hot-path function.
func (j *Job) scan(a uint64) {
	if j.dirty == nil {
		j.dirty = make(map[uint64]bool) // want hotpath "allocates a map"
	}
	delete(j.dirty, a) // want hotpath "delete mutates a map"
}

// Teardown is not on the hot path: the same map state passes here.
func (j *Job) Teardown() uint64 {
	delete(j.dirty, 0)
	return j.probs["ifetch"]
}
