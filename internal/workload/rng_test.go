package workload

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

// Float64 returns a uniform float64 in [0, 1). It and Chance are how the
// generator decided before its decisions became integer threshold compares;
// they stay here as the oracle those compares must match draw for draw.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Chance reports true with probability p.
func (r *RNG) Chance(p float64) bool { return r.Float64() < p }

// rngYielding returns a generator whose next Uint64 is x, by running
// splitmix64's output mix backwards: each xorshift is undone by iterating
// it, each odd multiplier by its inverse mod 2⁶⁴.
func rngYielding(x uint64) RNG {
	unshift := func(y uint64, k uint) uint64 {
		z := y
		for i := uint(0); i < 64; i += k {
			z = y ^ z>>k
		}
		return z
	}
	inverse := func(c uint64) uint64 {
		inv := c // correct to 3 bits; each Newton step doubles that
		for i := 0; i < 5; i++ {
			inv *= 2 - c*inv
		}
		return inv
	}
	z := unshift(x, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	z = unshift(z, 30)
	return RNG{state: z - 0x9e3779b97f4a7c15}
}

// thresholdProbabilities lists the probabilities the exactness test covers:
// the edges of threshold's domain, the neighbours of 53-bit grid points,
// the literal decision probabilities in job.go, and every probability (and
// summed pair) the shipped workload specs hand a job.
func thresholdProbabilities() []float64 {
	ps := []float64{0, 1, -0.5, 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0.7, 0.8, 0.35}
	for _, k := range []float64{1, 1 << 52, 1<<53 - 1} {
		g := k / (1 << 53)
		ps = append(ps, g, math.Nextafter(g, 0), math.Nextafter(g, 1))
	}
	job := func(p JobParams) {
		ps = append(ps, p.PIFetch, p.PJump, p.PFarJump,
			p.PStack, p.PAlloc, p.PStack+p.PAlloc, p.PScanHeap,
			p.PWritePage, p.WriteRO, p.WriteRMW, p.WriteRO+p.WriteRMW,
			p.ReadPassWrite, p.PSrcRead, p.PBackWrite, p.PSeq,
			p.PHotData, p.PHotWrite, p.PRevisitWrite)
	}
	specs := []Spec{SLCSpec(), Workload1Spec(), WindowSpec()}
	for _, h := range SpriteHosts() {
		specs = append(specs, h.Spec())
	}
	for _, s := range specs {
		for _, js := range append(append([]JobSpec(nil), s.Background...), s.Foreground...) {
			job(js.Params)
		}
		for _, m := range s.Monitors {
			job(m.Spec.Params)
		}
	}
	job(DefaultSharedParams(4).Job)
	return ps
}

// thresholdDraws returns 64-bit draws around the decision boundary of t:
// the 53-bit values 0, 1, t-1, t, t+1 and the top of the range, each with
// its low 11 bits clear and set, plus a spread of pseudo-random draws.
func thresholdDraws(t uint64) []uint64 {
	var xs []uint64
	for _, m := range []uint64{0, 1, t - 1, t, t + 1, 1 << 52, 1<<53 - 1} {
		if m >= 1<<53 {
			continue // t-1 wrapped below 0, or t+1 past the top
		}
		xs = append(xs, m<<11, m<<11|0x7ff)
	}
	r := NewRNG(t)
	for i := 0; i < 64; i++ {
		xs = append(xs, r.Uint64())
	}
	return xs
}

func TestRNGYielding(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		x := r.Uint64()
		y := rngYielding(x)
		if got := y.Uint64(); got != x {
			t.Fatalf("rngYielding(%#x) yields %#x", x, got)
		}
	}
}

// TestThresholdMatchesFloat holds below(threshold(p)) to the float compare
// it replaced, on draws placed on both sides of every threshold.
func TestThresholdMatchesFloat(t *testing.T) {
	for _, p := range thresholdProbabilities() {
		th := threshold(p)
		if th > 1<<53 {
			t.Fatalf("threshold(%v) = %d, above 2^53", p, th)
		}
		for _, x := range thresholdDraws(th) {
			a, b := rngYielding(x), rngYielding(x)
			if got, want := a.below(th), b.Chance(p); got != want {
				t.Errorf("p=%v (%#x) x=%#x: below(%d) = %v, Float64() < p = %v",
					p, math.Float64bits(p), x, th, got, want)
			}
		}
	}
}

// FuzzThreshold compares below(threshold(p)) with the float compare for
// arbitrary float64 bit patterns p and draws x, and checks the boundary
// draws m = threshold-1 and m = threshold of each fuzzed p.
func FuzzThreshold(f *testing.F) {
	f.Add(math.Float64bits(0.7), uint64(0))
	f.Add(math.Float64bits(0.35), ^uint64(0))
	f.Add(math.Float64bits(math.SmallestNonzeroFloat64), uint64(0x7ff))
	f.Add(math.Float64bits(math.Nextafter(1, 0)), uint64(1<<53-1)<<11)
	f.Add(math.Float64bits(math.NaN()), uint64(12345))
	f.Fuzz(func(t *testing.T, pbits, x uint64) {
		p := math.Float64frombits(pbits)
		th := threshold(p)
		// At th = 0 or 2⁵³ the boundary draws wrap round to the other end
		// of the range, which is still a draw both sides must agree on.
		for _, x := range []uint64{x, (th-1)<<11 | x&0x7ff, th<<11 | x&0x7ff} {
			a, b := rngYielding(x), rngYielding(x)
			if got, want := a.below(th), b.Chance(p); got != want {
				t.Fatalf("p=%v (%#x) x=%#x: below(%d) = %v, Float64() < p = %v",
					p, pbits, x, th, got, want)
			}
		}
	})
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds collided on first draw")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestIntnUnbiasedLargeBound(t *testing.T) {
	// With n just over 2^62 on 64-bit int, a modulo draw would pile ~58%
	// of the mass into the low half; the rejection draw must not.
	if strconv.IntSize < 64 {
		t.Skip("needs 64-bit int")
	}
	n := 1<<62 + 9999
	r := NewRNG(17)
	low := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if r.Intn(n) < n/2 {
			low++
		}
	}
	if frac := float64(low) / draws; frac < 0.47 || frac > 0.53 {
		t.Errorf("low-half fraction %.3f; biased draw", frac)
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestChance(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Chance(0.25) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Chance(0.25) frequency = %v", frac)
	}
	if r.Chance(0) {
		t.Error("Chance(0) fired")
	}
}

func TestRange(t *testing.T) {
	r := NewRNG(13)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Range(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("Range(3,6) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 6; v++ {
		if !seen[v] {
			t.Errorf("Range never produced %d", v)
		}
	}
	if r.Range(5, 5) != 5 {
		t.Error("degenerate range")
	}
	defer func() {
		if recover() == nil {
			t.Error("empty range did not panic")
		}
	}()
	r.Range(6, 3)
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(5)
	f1, f2 := r.Fork(), r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Error("forks correlated on first draw")
	}
}

func TestUint64Uniformish(t *testing.T) {
	// Property: low bit is unbiased over any window.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		ones := 0
		for i := 0; i < 640; i++ {
			ones += int(r.Uint64() & 1)
		}
		return ones > 240 && ones < 400
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
