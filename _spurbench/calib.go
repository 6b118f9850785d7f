package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration. On a shared host the CPU speed a process gets
// drifts by 20% and more over minutes, through other tenants' load on the
// same cores. The drift is slower than one run, so medians inside a run
// cannot remove it. Instead a run interleaves calibrations with its timed
// work: a fixed loop that belongs to the benchmark and never changes with
// the program. The end-to-end times are reported at the speed at which the
// reference host runs that loop: each is multiplied by calRefS over the
// median calibration of the run. A change in the program moves the timed
// work and not the calibration, so it shows in full; drift in the host
// moves both and cancels. The raw times and the run's median calibration
// go into the record line beside the scaled times.

const (
	// calIters is the loop's length per worker: about 100 ms.
	calIters = 40_000_000
	// calTableLen is the loop's table: 256 KiB of uint64 tags, more than
	// an L1 cache holds, so the loop waits on L2 as the simulator's
	// lookups do.
	calTableLen = 1 << 15
	// calEvery is the least time between two calibrations.
	calEvery = time.Second
	// calRefS is the calibration's median time on the reference host
	// (2-vCPU Intel Xeon VM, go1.24.0, 2 workers).
	calRefS = 0.110
)

// calSink keeps the loop's result alive.
var calSink [64]uint64

// calLoop probes a direct-mapped table of tags with pseudo-random
// addresses, replacing on a miss: a cache model's inner loop.
func calLoop(tab *[calTableLen]uint64, id int) {
	clear(tab[:])
	x := uint64(id) + 1
	var hits uint64
	for i := 0; i < calIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		a := x >> 20
		j := a & (calTableLen - 1)
		if tab[j] == a>>15 {
			hits++
		} else {
			tab[j] = a >> 15
		}
	}
	calSink[id%len(calSink)] += hits
}

// hostSpeed calibrates between a run's timed intervals, on as many
// goroutines as the load has workers, so that every CPU the load uses is
// measured.
type hostSpeed struct {
	tabs []*[calTableLen]uint64
	last time.Time
	// cals is every calibration's time, in s.
	cals []float64
}

// newHostSpeed makes the run's first calibration.
func newHostSpeed(workers int) *hostSpeed {
	h := &hostSpeed{tabs: make([]*[calTableLen]uint64, workers)}
	for i := range h.tabs {
		h.tabs[i] = new([calTableLen]uint64)
	}
	h.calibrate()
	return h
}

// calibrate collects garbage first, so that no background work of the
// program runs inside the loop, then times the loop on every worker at
// once.
func (h *hostSpeed) calibrate() {
	runtime.GC()
	var wg sync.WaitGroup
	t := time.Now()
	for i, tab := range h.tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calLoop(tab, i)
		}()
	}
	wg.Wait()
	h.last = time.Now()
	h.cals = append(h.cals, secs(h.last.Sub(t)))
}

// tick calibrates if calEvery has passed since the last calibration. Call
// it between timed intervals, never inside one.
func (h *hostSpeed) tick() {
	if time.Since(h.last) >= calEvery {
		h.calibrate()
	}
}

// factor is what puts a time measured in this run at reference-host speed.
// Call it once, when the timed work is done: it calibrates once more first,
// so that the run's last stretch is measured too.
func (h *hostSpeed) factor() float64 {
	h.calibrate()
	return calRefS / median(h.cals)
}
