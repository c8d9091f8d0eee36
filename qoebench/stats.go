package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile picks the highest of p99.9, p99, p95 and p90 that has at
// least ten samples beyond it; below that it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9} {
		if float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0.5
}

// heapSampler tracks the peak live heap (bytes marked live by the most
// recent GC) while it runs. Sampling the post-mark figure, rather than
// the instantaneous heap, keeps the peak independent of where in its
// cycle the collector happened to be.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler collects garbage, then samples every millisecond until
// Stop. The first sample is the post-GC baseline.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	h.peak = readLiveHeap(sample)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.peak = max(h.peak, readLiveHeap(sample))
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB. A final forced GC marks
// whatever the measured span still holds, so a span too short to trigger
// a collection still reports its retained heap.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	runtime.GC()
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	h.peak = max(h.peak, readLiveHeap(sample))
	return float64(h.peak) / (1 << 20)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
