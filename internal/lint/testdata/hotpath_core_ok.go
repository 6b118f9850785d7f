//spurlint:path repro/internal/core

// Positive hot-path fixture for the access engine: the per-reference
// methods index dense arrays, and only a reporting method reads a map.
package fixture

// Rec mimics a trace record.
type Rec struct {
	Op   uint8
	Addr uint64
}

// Engine mimics the access engine on index-addressed state.
type Engine struct {
	tags   []uint64
	issued [3]uint64
	names  map[uint8]string
}

// AccessBatchAt is a designated hot-path function.
func (e *Engine) AccessBatchAt(recs []Rec, at *int) {
	for i, r := range recs {
		*at = i
		e.issued[r.Op]++
		b := r.Addr >> 5
		if e.tags[b%uint64(len(e.tags))] == b {
			continue
		}
		e.miss(b)
	}
	*at = len(recs)
}

// miss is a designated hot-path function.
func (e *Engine) miss(b uint64) { e.tags[b%uint64(len(e.tags))] = b }

// TouchBatch is a designated hot-path function.
func (e *Engine) TouchBatch(recs []Rec) {
	for _, r := range recs {
		if b := r.Addr >> 5; e.tags[b%uint64(len(e.tags))] != b {
			e.miss(b)
		}
	}
}

// OpName is not on the hot path.
func (e *Engine) OpName(op uint8) string { return e.names[op] }
