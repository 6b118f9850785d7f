package spur

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// The differential goldens pin the simulator's observable output — every
// paper table and the extension sweeps, at reduced reference budgets — to
// byte-exact files under testdata/goldens. Any change to the core that
// alters a single simulated decision shows up as a golden diff, which is
// what let the flat-core rewrite land with proof of equivalence: the files
// were captured from the struct-per-line/map-based core immediately before
// the swap and have not been regenerated since.
//
// Regenerate (only when an output change is intended and understood) with:
//
//	go test -run TestGoldens -update-goldens .
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/goldens from the current core")

// goldenRefs keeps each golden run small enough for CI while still paging
// heavily (hundreds of page-ins per run at the paper's memory sizes).
const goldenRefs = 300_000

func goldenCases() []struct {
	name   string
	render func() string
} {
	return []struct {
		name   string
		render func() string
	}{
		{"table21", func() string { return Table21().String() }},
		{"table31", func() string { return Table31().String() }},
		{"table32", func() string { return Table32().String() }},
		{"figure31", Figure31},
		{"figure32", Figure32},
		{"paper-table34", func() string { return PaperTable34().String() }},
		{"table33-34", func() string {
			rows := Table33(Table33Options{Refs: goldenRefs, Seed: 1, SizesMB: []int{5, 8}})
			return RenderTable33(rows, true).String() + "\n" + Table34(rows).String()
		}},
		{"table35", func() string {
			return RenderTable35(Table35Scaled(1, 0.02), true).String()
		}},
		{"table41", func() string {
			rows := Table41(Table41Options{Refs: goldenRefs, Reps: 2, Seed: 1, SizesMB: []int{5, 8}})
			return RenderTable41(rows, true).String()
		}},
		{"memsweep", func() string {
			rows := MemorySweep(MemorySweepOptions{
				SizesMB: []int{4, 6, 8},
				Refs:    goldenRefs,
				Seed:    1,
				Reps:    2,
			})
			return MemorySweepCSV(rows) + "\n" +
				MemorySweepChart(rows, core.SLC) + "\n" +
				MemorySweepChart(rows, core.Workload1)
		}},
		{"cachesweep", func() string {
			rows := CacheSweep(CacheSweepOptions{
				CacheSizes: []int{32 << 10, 256 << 10, MiB(1)},
				MemMB:      5,
				Refs:       goldenRefs,
				Seed:       1,
			})
			return RenderCacheSweep(rows).String()
		}},
		// The sampled engine's estimates: profile, k-means, exact prefix,
		// warmed representatives and tail warming over both workloads. At
		// 1.5M references 4 MB pages hard enough that the policies differ.
		{"sampledsweep", func() string {
			rows, err := MemorySweepSampled(MemorySweepOptions{
				Workloads: []core.WorkloadName{core.SLC, core.Workload1},
				SizesMB:   []int{4, 8},
				Refs:      1_500_000,
				Seed:      1,
			}, SampleOptions{IntervalLen: 50_000, K: 4, Warmup: 25_000, Prefix: 100_000})
			if err != nil {
				return "error: " + err.Error()
			}
			return SampledSweepCSV(rows)
		}},
		{"faulthandlersweep", func() string {
			rows := Table33(Table33Options{Refs: goldenRefs, Seed: 1, SizesMB: []int{5}})
			return RenderFaultHandlerSweep(FaultHandlerSweep(rows[0].Events)).String()
		}},
	}
}

func TestGoldens(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "goldens", tc.name+".golden")
			got := tc.render()
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-goldens to capture): %v", err)
			}
			if got != string(want) {
				t.Fatalf("output differs from pre-rewrite golden %s\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff locates the first differing line so a golden failure points at
// the divergent cell instead of dumping two full tables.
func firstDiff(want, got string) string {
	wl, gl := splitLines(want), splitLines(got)
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
	return "lengths differ only"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
