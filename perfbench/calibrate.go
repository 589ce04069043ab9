package main

// Host-speed calibration. End-to-end times are CPU time (cpuclock.go),
// which leaves out the time the process waits for a CPU, but not the
// speed the CPU runs at when it has one: on the shared reference host that
// moved by 1.3x within minutes as other guests came and went (a fresh
// jobs-mix job took 14 ms of CPU in one minute and 19 ms a few minutes
// later). The benchmark therefore times a fixed kernel of its own, in CPU
// time too, throughout a run: after each set-up, after each replay window
// and after each jobs-mix round. One kernel time is too noisy to scale the
// window next to it, but the median over a run's dozens to hundreds of
// them tracks the CPU's speed for that run. Reported end-to-end times are
// scaled by calNominal / that median, and rates by its inverse. The kernel
// is benchmark code, so a change to the program cannot move it; the median
// kernel time is in the info line (cal_ms), so unscaled figures can be
// recovered.

import (
	"runtime"
	"time"
)

// calNominal is the kernel time the normalization scales to: a median
// kernel run of 20 ms means the host ran at nominal speed and times are
// reported raw.
const calNominal = 20 * time.Millisecond

// calOps is the kernel size: about calNominal on the reference host.
const calOps = 260_000

var (
	calMap  = make(map[int64]int64, 1<<17)
	calSink int
	// calRuns holds every kernel time of the run.
	calRuns []float64
)

// calibrate collects garbage, so that no GC cycle the work left running
// shares the thread with the kernel, and then times the kernel n times:
// hashed inserts and deletes on a reused map (no allocation), the same
// kind of work as the FTL's mapping tables.
func calibrate(n int) {
	runtime.GC()
	for i := 0; i < n; i++ {
		clear(calMap)
		start := cpuNow()
		x := int64(1)
		for op := 0; op < calOps; op++ {
			x = x*6364136223846793005 + 1442695040888963407
			calMap[(x>>20)&(1<<17-1)] += int64(op)
			if op%3 == 0 {
				delete(calMap, (x>>30)&(1<<17-1))
			}
		}
		calRuns = append(calRuns, millis(cpuNow()-start))
		calSink += len(calMap)
	}
}

// hostSlowdown is how many times slower than nominal the host ran over
// the run so far: the median kernel time over calNominal (1 before any
// kernel ran).
func hostSlowdown() float64 {
	if len(calRuns) == 0 {
		return 1
	}
	return median(calRuns) / millis(calNominal)
}
