package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// host is what the benchmark learns about the machine before it runs.
type host struct {
	nproc    int   // CPUs this process may run on, as nproc counts them
	llcBytes int64 // largest cache the kernel reports (0 when unknown)
}

func probeHost() host {
	return host{nproc: runtime.NumCPU(), llcBytes: llcBytes()}
}

// llcBytes reads the size of the highest-level cache of CPU 0 from sysfs —
// the figure lscpu reports per instance.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var level, size int64
	for _, d := range dirs {
		l := readInt(filepath.Join(d, "level"))
		s := parseSize(readString(filepath.Join(d, "size")))
		if l > level || (l == level && s > size) {
			level, size = l, s
		}
	}
	return size
}

func readString(path string) string {
	b, _ := os.ReadFile(path)
	return strings.TrimSpace(string(b))
}

func readInt(path string) int64 {
	v, _ := strconv.ParseInt(readString(path), 10, 64)
	return v
}

// parseSize parses sysfs cache sizes such as "307200K".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, _ := strconv.ParseInt(s, 10, 64)
	return v * mult
}

// streamArrayBytes sizes the triad arrays: four times the last-level cache
// so the caches cannot hold them, unless the three arrays would take more
// than half the available memory; then the largest size that fits.
func streamArrayBytes(llc int64) int64 {
	want := 4 * llc
	if want < 64<<20 {
		want = 64 << 20
	}
	if avail := procBytes("/proc/meminfo", "MemAvailable"); avail > 0 && 3*want > avail/2 {
		want = avail / 6
	}
	return want &^ (1<<20 - 1)
}

// streamTriad measures sustainable memory bandwidth with the STREAM triad
// a = b + s·c over float64 arrays of the given size, split over workers
// goroutines. It returns the best of several passes in GB/s, counting the
// three arrays' bytes per pass as STREAM does.
func streamTriad(arrayBytes int64, workers int) float64 {
	n := int(arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	split := func(f func(lo, hi int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := n*w/workers, n*(w+1)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(lo, hi)
			}()
		}
		wg.Wait()
	}
	split(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 1, 2, 0.5
		}
	})
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		split(func(lo, hi int) {
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		})
		if gbps := 3 * float64(arrayBytes) / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	runtime.KeepAlive(a)
	return best
}

// coldStart returns the heap to the OS, so the next allocations fault
// their pages in as a freshly started process's would, and memory left
// over from earlier regions (and reference computations) does not count
// against the next high-water mark.
func coldStart() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeak starts a memory region: it resets the kernel's resident-set
// high-water mark (VmHWM) to the current resident set. A host that does
// not allow the reset fails the run rather than report another measure.
func resetPeak() error {
	//qlint:ignore atomicrename writing clear_refs resets a kernel counter; it is not checkpoint data
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the memory high-water mark: %w", err)
	}
	return nil
}

// peakBytes is the resident-set high-water mark since the last resetPeak.
func peakBytes() int64 { return procBytes("/proc/self/status", "VmHWM") }

// procBytes reads a "Field: N kB" line of a /proc file in bytes (0 when
// absent).
func procBytes(path, field string) int64 {
	b, _ := os.ReadFile(path)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == field+":" {
			v, _ := strconv.ParseInt(f[1], 10, 64)
			return v << 10
		}
	}
	return 0
}
