//go:build !linux

package main

import "time"

var clockEpoch = time.Now()

// threadCPU falls back to wall time where no per-thread CPU clock is
// wired up.
func threadCPU() time.Duration { return time.Since(clockEpoch) }

func lockThread() func() { return func() {} }

func runDelay() time.Duration { return 0 }

func offHeapWords(n int) []uint64 { return make([]uint64, n) }
