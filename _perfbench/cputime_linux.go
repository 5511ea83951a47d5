package main

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// The loop runs on the main goroutine, locked to the main thread, so the
// thread CPU clock measures exactly the loop's work.
func init() { runtime.LockOSThread() }

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTimeID = 3

// readThreadCPU reads the calling thread's CPU time (user and system) in
// nanoseconds. A kernel with paravirtual steal accounting excludes time
// the hypervisor took the virtual CPU away, so on a shared machine this
// clock measures the work done, where the wall clock also measures the
// neighbours.
func readThreadCPU() (int64, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("thread CPU clock: %w", errno)
	}
	return ts.Sec*1e9 + ts.Nsec, nil
}

// threadCPU is readThreadCPU for use after main has checked the clock.
func threadCPU() int64 {
	ns, err := readThreadCPU()
	if err != nil {
		panic(err)
	}
	return ns
}
