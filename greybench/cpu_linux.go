package main

import (
	"syscall"
	"unsafe"
)

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU reads the calling thread's CPU time. Go may move a
// goroutine to another thread between two readings, so each carries
// the thread id it was taken on.
func threadCPU() cpuMark {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return cpuMark{cpu: ts.Nano(), tid: syscall.Gettid()}
}

// processCPU is the process's user+system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
