package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/trace"
)

// streamDigestRecs is how many records of each stream TestStreamDigests
// hashes: enough to cover job exits, respawns, monitor firings and heap
// generation turnover in every workload.
const streamDigestRecs = 2_000_000

// recHasher folds records into a SHA-256 as 13-byte little-endian
// (PID, Op, Addr) tuples.
type recHasher struct {
	h   hash.Hash
	buf []byte
}

func newRecHasher() *recHasher { return &recHasher{h: sha256.New()} }

func (rh *recHasher) add(recs []trace.Rec) {
	rh.buf = rh.buf[:0]
	for _, r := range recs {
		rh.buf = binary.LittleEndian.AppendUint32(rh.buf, uint32(r.PID))
		rh.buf = append(rh.buf, byte(r.Op))
		rh.buf = binary.LittleEndian.AppendUint64(rh.buf, uint64(r.Addr))
	}
	rh.h.Write(rh.buf)
}

func (rh *recHasher) sum() string { return hex.EncodeToString(rh.h.Sum(nil)) }

// scriptDigest hashes the first n records Script.NextBatch produces.
func scriptDigest(t *testing.T, seed uint64, spec Spec, n int) string {
	t.Helper()
	s := NewScript(newFakeEnv(), seed, spec)
	rh := newRecHasher()
	buf := make([]trace.Rec, 4096)
	for done := 0; done < n; {
		k := s.NextBatch(buf[:min(len(buf), n-done)])
		if k == 0 {
			t.Fatalf("%s ran dry after %d records", spec.Name, done)
		}
		rh.add(buf[:k])
		done += k
	}
	return rh.sum()
}

// sharedDigest hashes n records of a SharedWorkload stepped round-robin
// across its CPUs.
func sharedDigest(seed uint64, cpus, n int) string {
	w := NewSharedWorkload(newFakeEnv(), seed, DefaultSharedParams(cpus))
	rh := newRecHasher()
	buf := make([]trace.Rec, 0, 4096)
	for i := 0; i < n; i++ {
		buf = append(buf, w.Step(i%cpus))
		if len(buf) == cap(buf) {
			rh.add(buf)
			buf = buf[:0]
		}
	}
	rh.add(buf)
	return rh.sum()
}

// TestStreamDigests pins the generated reference streams bit for bit. The
// goldens catch a generator change only as a shifted table; this names the
// workload whose stream moved. The digests were recorded with float
// compares deciding, so they hold the integer threshold compares to the
// same draws. A deliberate stream change must update them and say why.
func TestStreamDigests(t *testing.T) {
	type stream struct {
		name, want string
		digest     func(t *testing.T) string
	}
	script := func(spec Spec) func(*testing.T) string {
		return func(t *testing.T) string { return scriptDigest(t, 3, spec, streamDigestRecs) }
	}
	streams := []stream{
		{"slc", "e5fa5fba28eb0d6923b9dec4b898d00b346466ecdeb72fbaa69ad8548b000e10", script(SLCSpec())},
		{"workload1", "0ddff8f349a3eb10e06bf673d79afb2c3d3b16e6a94e26f8cb039753bd8def09", script(Workload1Spec())},
		{"window", "19bf11567b151a9b93f8368c1c2e4fc0d05af8a466bb4ec85578374f4c8a3902", script(WindowSpec())},
		{"shared4", "33d18536492598f086205c66ddd4f9fb30804dc61d3703e177d0bcd5fa6b702b", func(*testing.T) string { return sharedDigest(3, 4, streamDigestRecs) }},
	}
	sprite := []string{
		"4a570d83d7af7f50321a503b4973ced053c6d585a549a960c312afc7802f1e23",
		"0ee60083b253adc6d0a5423f3bb34f6c97de48b961f7dac2d40fbad877a98a83",
		"23be31d259d434d31ac88b8d8ba9d7ea189bb0e599ce69f2724acd12e42604dd",
		"b6cbcb77e928cd1605d340b42e8bb786e5fecc0cbd3eab1b4d6c8e3f3b18d8a8",
		"3c67464c746f43d4e9edbcb3f03318b63a9ec6d9af719b5cf72b24642e8a1bc2",
		"96a04a157110474f7b6c89c74b5c94ad6395d4137bdb7ebe2a3de543d748acc6",
	}
	for i, h := range SpriteHosts() {
		streams = append(streams, stream{fmt.Sprintf("sprite%d-%s", i, h.Name), sprite[i], script(h.Spec())})
	}
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			if got := s.digest(t); got != s.want {
				t.Errorf("digest of the first %d records changed:\n got %s\nwant %s", streamDigestRecs, got, s.want)
			}
		})
	}
}
