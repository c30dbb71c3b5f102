package main

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// cpuNow returns the calling thread's CPU time in ns. main locks its
// goroutine to one thread, so differences between two reads are the CPU
// time the work between them used. Unlike wall time they leave out the
// time the OS, or the hypervisor (steal time), ran something else, which
// on a shared machine puts millisecond gaps into random items.
func cpuNow() int64 {
	var ts syscall.Timespec
	// clock_gettime cannot block, so the raw form is safe.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
