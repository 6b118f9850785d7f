// Command spurbench is the reproduction's end-to-end benchmark. It runs one
// workload for a fixed time, checks that every output is correct, and prints
// every metric by name with its unit. The last line of standard output is a
// JSON result object; the line before it is a JSON record that carries the
// same metrics plus the hardware and source fingerprint they were measured
// on.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	spurbench --workload sweep-exact --seed 1 --seconds 15 --trace 0
//
// Workloads are sweep-exact, sweep-sampled and service-fleet (see
// README.md). With --trace 0 the end-to-end metrics are measured; with
// --trace 1 a separate traced run times the calls into each layer and
// prints the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*result, error){
	"sweep-exact":   runSweepExact,
	"sweep-sampled": runSweepSampled,
	"service-fleet": runFleet,
}

// runConfig is one invocation's parameters.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Root is the repository checkout the benchmark runs in; scratch
	// files (fleet stores, span dumps) live under Root/.bench_build.
	Root string
	// Workers is the load width: sweep workers or fleet clients.
	Workers int
}

func main() {
	var cfg runConfig
	var trace int
	var record string
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: sweep-exact, sweep-sampled or service-fleet")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs are derived from")
	flag.Float64Var(&cfg.Seconds, "seconds", 15, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer split instead of the end-to-end measurement")
	flag.StringVar(&record, "record-digests", "", "write the sweep output digest of every input seed to this file and exit")
	flag.Parse()
	cfg.Trace = trace == 1

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	cfg.Root = root
	cfg.Workers = loadWidth()

	if record != "" {
		if err := recordDigests(record, cfg.Workers); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[cfg.Workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want sweep-exact, sweep-sampled or service-fleet)", cfg.Workload))
	}
	if cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}

	start := time.Now()
	res, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.Workload, err))
	}
	res.print(os.Stdout, cfg, root, time.Since(start))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "spurbench: %s: output check failed: %s\n", cfg.Workload, res.why)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spurbench: %v\n", err)
	os.Exit(2)
}

// result is what one workload run reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	// Samples names each percentile's sample count (and other sizes a
	// reader needs to judge the numbers); it goes into the record line.
	Samples map[string]int
	// Raw holds the end-to-end times as measured, before they are put at
	// reference-host speed, and the calibration's own time; they go into
	// the record line.
	Raw []metric
	why string
}

// fail marks the run incorrect, keeping the first reason.
func (r *result) fail(format string, args ...any) {
	if r.why == "" {
		r.why = fmt.Sprintf(format, args...)
	}
	r.Correct = false
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

func (r *result) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, value, unit})
}

func (r *result) addRaw(name string, value float64, unit string) {
	r.Raw = append(r.Raw, metric{name, value, unit})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable listing, the fingerprinted record line
// and, last, the result object.
func (r *result) print(w *os.File, cfg runConfig, root string, wall time.Duration) {
	mode := "end-to-end"
	if cfg.Trace {
		mode = "traced per-layer"
	}
	fmt.Fprintf(w, "# spurbench %s seed=%d seconds=%g (%s), %.1fs total\n", cfg.Workload, cfg.Seed, cfg.Seconds, mode, wall.Seconds())
	ms := make(map[string]jsonMetric, len(r.Metrics))
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", m.Name, m.Value, m.Unit)
		ms[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	raw := make(map[string]jsonMetric, len(r.Raw))
	for _, m := range r.Raw {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", "raw."+m.Name, m.Value, m.Unit)
		raw[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	rec, err := json.Marshal(struct {
		Record      string                `json:"record"`
		Workload    string                `json:"workload"`
		Seed        uint64                `json:"seed"`
		Trace       bool                  `json:"trace"`
		Fingerprint fingerprint           `json:"fingerprint"`
		Samples     map[string]int        `json:"samples"`
		Metrics     map[string]jsonMetric `json:"metrics"`
		Raw         map[string]jsonMetric `json:"raw,omitempty"`
	}{"spurbench", cfg.Workload, cfg.Seed, cfg.Trace, hostFingerprint(root, cfg.Seed), r.Samples, ms, raw})
	if err != nil {
		fatal(fmt.Errorf("encoding the record: %w", err)) // a NaN or Inf metric
	}
	fmt.Fprintln(w, string(rec))
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		fatal(fmt.Errorf("encoding the result: %w", err))
	}
	fmt.Fprintln(w, string(out))
}
