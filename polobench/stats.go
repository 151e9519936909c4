package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// beyond is the number of samples above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// seconds converts a timer reading in seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// processCPU is the user+system CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is the subset of runtime/metrics the benchmark reports.
type rtSample struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds (estimate)
	gcs        float64 // completed GC cycles
	liveBytes  float64 // live heap marked by the last GC
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: v(0), gcCPU: v(1), gcs: v(2), liveBytes: v(3)}
}

// heapWatch records the largest live heap the runtime reports after
// each GC cycle while it is armed. A finalizer on a sentinel runs once
// per cycle and re-arms itself, so every cycle is seen, not only the
// last one before a sample point.
type heapWatch struct {
	peak atomic.Uint64
	stop atomic.Bool
}

// sentinel holds a pointer so it is never tiny-allocated: a tiny
// allocation shares its block and may not be finalized after a cycle.
type sentinel struct{ _ *int }

func watchHeap() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		if h.stop.Load() {
			return
		}
		live := uint64(readRuntime().liveBytes)
		for {
			old := h.peak.Load()
			if live <= old || h.peak.CompareAndSwap(old, live) {
				break
			}
		}
		h.arm()
	})
}

// close disarms the watch and returns the peak in bytes; 0 means no GC
// completed while it was armed.
func (h *heapWatch) close() float64 {
	h.stop.Store(true)
	return float64(h.peak.Load())
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: total ticks and
// the steal share of them. ok is false where /proc/stat is unavailable.
func cpuTicks() (total, steal float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, fs := range fields[1:] {
			v, err := strconv.ParseFloat(fs, 64)
			if err != nil {
				return 0, 0, false
			}
			// guest and guest_nice (fields 9, 10) are already counted in
			// user and nice.
			if i < 8 {
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		return total, steal, true
	}
	return 0, 0, false
}

// fsName names the filesystem holding dir, from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// splitmix64 derives independent seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func deriveSeed(seed int64, stream uint64) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(stream)) >> 1)
}
