package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process's own counters.
type procSample struct {
	CPU        time.Duration // user + system
	Allocs     uint64        // heap objects allocated
	AllocBytes uint64
	GCCPU      float64 // seconds of CPU spent in the garbage collector
	TotalCPU   float64 // seconds of CPU, as the Go runtime accounts it
	// WriteBytes is what the process caused to be written to storage
	// (/proc/self/io write_bytes); -1 when the kernel does not report it.
	WriteBytes int64
}

var procMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleProcess() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms)
	return procSample{
		CPU:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		Allocs:     ms[0].Value.Uint64(),
		AllocBytes: ms[1].Value.Uint64(),
		GCCPU:      ms[2].Value.Float64(),
		TotalCPU:   ms[3].Value.Float64(),
		WriteBytes: procField("/proc/self/io", "write_bytes:"),
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	if kb < 0 {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		kb = ru.Maxrss
	}
	return float64(kb) / 1024
}

// procField returns the first number after prefix in a /proc file, or -1.
func procField(path, prefix string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return -1
			}
			n, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}
