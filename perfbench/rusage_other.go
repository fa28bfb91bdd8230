//go:build !unix

package main

import "runtime"

// peakRSSMiB is unavailable off unix; the runtime's view of memory
// obtained from the OS stands in for it.
func peakRSSMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuSeconds is unavailable off unix.
func cpuSeconds() float64 { return 0 }
