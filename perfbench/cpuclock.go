package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow is the CPU time the process has used so far, all threads
// together. The benchmark times its end-to-end metrics with it rather than
// with the wall clock: Linux does not count time the process spent waiting
// for a CPU, whether another process held it or the hypervisor gave it to
// another guest (steal time, on kernels built with
// PARAVIRT_TIME_ACCOUNTING). On the shared reference host, with two
// busy-looping processes on its two vCPUs, a fixed 20 ms loop of map
// operations went from a wall-clock p75 of 21 ms to 39 ms while its
// CPU-time p75 stayed at 21-22 ms.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
