package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFingerprint identifies the machine a run was measured on, so that
// numbers from different hosts are never compared.
type hostFingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() hostFingerprint {
	fp := hostFingerprint{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// stealSeconds reads the host-wide steal time from /proc/stat: time the
// hypervisor ran another guest while this one had work. It is reported
// with each run because it inflates wall time without any change to the
// program. It returns -1 where /proc/stat is unavailable.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a snapshot of the runtime counters the ledger reads.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	schedLat   *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		r.schedLat = s[2].Value.Float64Histogram() // s is fresh, so nothing reuses it
	}
	return r
}

// schedWaitP50 returns the median goroutine scheduling latency (time
// spent runnable before running) between two snapshots, in seconds.
func schedWaitP50(before, after runtimeSample) float64 {
	if before.schedLat == nil || after.schedLat == nil || len(before.schedLat.Counts) != len(after.schedLat.Counts) {
		return 0
	}
	delta := make([]uint64, len(after.schedLat.Counts))
	var total uint64
	for i := range delta {
		delta[i] = after.schedLat.Counts[i] - before.schedLat.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen*2 >= total {
			// Bucket i spans Buckets[i]..Buckets[i+1]; the outer buckets
			// are open-ended, so fall back to their finite edge.
			lo, hi := after.schedLat.Buckets[i], after.schedLat.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				return max(hi, 0)
			case math.IsInf(hi, 1):
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return 0
}
