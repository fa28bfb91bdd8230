package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuStat holds the machine-wide CPU time counters from the first line of
// /proc/stat, in clock ticks: the total over the eight time states, and
// steal, the time a virtual CPU of this machine was ready to run while
// the hypervisor ran something else.
type cpuStat struct{ steal, total uint64 }

// readCPUStat reads the counters; off Linux (no /proc/stat) it returns
// zeros, which makes every share below 0.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealShare is the share of the machine's CPU time stolen between two
// readings.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// runShare turns a steal share into the factor that converts a wall time
// measured over the same interval into the time the machine actually
// ran: on a shared host, stolen time measures the neighbors, not the
// program, so every timed end-to-end metric is multiplied by it (and
// every rate divided). The raw share is printed with the results.
func runShare(steal float64) float64 {
	return max(1-steal, 0.1)
}
