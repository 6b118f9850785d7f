//spurlint:path repro/internal/core

// Negative hot-path fixture for the access engine: per-reference access and
// warming methods that keep their bookkeeping in maps pay a hash on every
// reference the sweep or the sampled measuring pass drives through them.
package fixture

// Rec mimics a trace record.
type Rec struct {
	Op   uint8
	Addr uint64
}

// Engine mimics the access engine with map-backed state.
type Engine struct {
	lines   map[uint64]uint8
	touched map[uint64]bool
	byOp    map[uint8]uint64
}

// Access is a designated hot-path function.
func (e *Engine) Access(r Rec) {
	e.byOp[r.Op]++                          // want hotpath "indexes a map"
	if _, hit := e.lines[r.Addr>>5]; !hit { // want hotpath "indexes a map"
		e.miss(r.Addr >> 5)
	}
}

// miss is a designated hot-path function.
func (e *Engine) miss(b uint64) {
	e.lines[b] = 1 // want hotpath "indexes a map"
}

// TouchBatch is a designated hot-path function.
func (e *Engine) TouchBatch(recs []Rec) {
	if e.touched == nil {
		e.touched = make(map[uint64]bool) // want hotpath "allocates a map"
	}
	for _, r := range recs {
		e.touchMiss(r.Addr >> 5)
	}
}

// touchMiss is a designated hot-path function.
func (e *Engine) touchMiss(b uint64) {
	delete(e.touched, b) // want hotpath "delete mutates a map"
}

// touchWriteHit is a designated hot-path function.
func (e *Engine) touchWriteHit(b uint64) {
	for k := range e.lines { // want hotpath "ranges over a map"
		_ = k
	}
}

// Report is not on the hot path: the same map state passes here.
func (e *Engine) Report() uint64 {
	return e.byOp[0]
}
