package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID of clock_gettime(2)

// threadCPU is the CPU time the calling OS thread has run. The caller must
// be locked to its thread (see lockThread). Time the hypervisor takes from
// the virtual CPU, and time spent waiting to run, is not CPU time, so on a
// shared machine this is steadier than wall time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error()) // supported by every kernel Go runs on
	}
	return time.Duration(ts.Nano())
}

// lockThread pins the calling goroutine to its OS thread, so successive
// threadCPU reads come from one thread; call the returned function to
// release it.
func lockThread() func() {
	runtime.LockOSThread()
	return runtime.UnlockOSThread
}

// runDelay is the time the calling OS thread has spent runnable but waiting
// for a CPU, from the second field of /proc/thread-self/schedstat; 0 where
// the kernel does not keep it. The caller must be locked to its thread.
func runDelay() time.Duration {
	b, err := os.ReadFile("/proc/thread-self/schedstat")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	ns, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ns)
}

// offHeapWords returns n zeroed words of memory outside the Go heap, so the
// speed probe's table never shows in heap_mb. It is never unmapped: a run
// makes one table per measured workload half.
func offHeapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint64, n) // counted in heap_mb, but still a working probe
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}
