package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: 2^subBits
// linear sub-buckets per power of two (0.8% relative width), recorded
// lock-free from any goroutine. Percentiles interpolate inside the
// bucket by rank, so they are not quantised to bucket edges. Failed ops
// are counted as infinite samples.
type hist struct {
	b   [64 << subBits]atomic.Uint64
	n   atomic.Uint64
	inf atomic.Uint64
}

const subBits = 7

func bucketOf(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	v := uint64(ns)
	e := bits.Len64(v) - 1
	if e < subBits {
		return int(v)
	}
	shift := e - subBits
	return (shift+1)<<subBits + int((v>>shift)&(1<<subBits-1))
}

// bucketRange returns the [lo, hi) nanosecond range of bucket i.
func bucketRange(i int) (float64, float64) {
	if i < 1<<subBits {
		return float64(i), float64(i + 1)
	}
	shift := i>>subBits - 1
	m := uint64(i&(1<<subBits-1)) | 1<<subBits
	lo := float64(m << shift)
	return lo, lo + float64(uint64(1)<<shift)
}

func (h *hist) add(d time.Duration) {
	h.b[bucketOf(int64(d))].Add(1)
	h.n.Add(1)
}

func (h *hist) addInf(k int) {
	h.inf.Add(uint64(k))
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i := range o.b {
		if c := o.b[i].Load(); c > 0 {
			h.b[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
	h.inf.Add(o.inf.Load())
}

// count is the number of samples including infinite ones.
func (h *hist) count() uint64 { return h.n.Load() + h.inf.Load() }

// quantile returns the q-quantile in milliseconds; +Inf when it falls
// among the failed samples, NaN when empty.
func (h *hist) quantile(q float64) float64 {
	total := h.count()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	if rank >= float64(h.n.Load()) {
		return math.Inf(1)
	}
	var cum float64
	for i := range h.b {
		c := float64(h.b[i].Load())
		if c == 0 {
			continue
		}
		if cum+c > rank {
			lo, hi := bucketRange(i)
			return (lo + (hi-lo)*(rank-cum)/c) / 1e6
		}
		cum += c
	}
	return math.Inf(1)
}

// beyond reports how many samples lie above the q-quantile.
func (h *hist) beyond(q float64) uint64 {
	return uint64(float64(h.count()) * (1 - q))
}

// cpuTime is the process user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a snapshot of the runtime/metrics the per-layer report uses.
type rtSample struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
	sched                 *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	cp := &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: h.Buckets,
	}
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		sched:      cp,
	}
}

// schedP99us is the p99 of the scheduling-latency histogram delta
// between two samples, interpolated inside its bucket, in microseconds.
func schedP99us(a, b rtSample) float64 {
	var total uint64
	d := make([]uint64, len(b.sched.Counts))
	for i := range d {
		d[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := 0.99 * float64(total)
	var cum float64
	for i, c := range d {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, hi := b.sched.Buckets[i], b.sched.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo * 2
			}
			return (lo + (hi-lo)*(rank-cum)/float64(c)) * 1e6
		}
		cum += float64(c)
	}
	return 0
}

// heapPeak samples the live heap (as measured by the last GC) every
// 20ms until stopped.
type heapPeak struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []heapSample
}

type heapSample struct {
	t    time.Time
	live uint64
}

func startHeapPeak() *heapPeak {
	hp := &heapPeak{stop: make(chan struct{})}
	hp.wg.Add(1)
	go func() {
		defer hp.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			hp.samples = append(hp.samples, heapSample{time.Now(), s[0].Value.Uint64()})
			select {
			case <-hp.stop:
				return
			case <-t.C:
			}
		}
	}()
	return hp
}

// done stops sampling and returns, in MiB, the median over 10 equal
// windows of [from, now] of each window's peak live heap.
func (hp *heapPeak) done(from time.Time) float64 {
	close(hp.stop)
	hp.wg.Wait()
	const n = 10
	span := time.Since(from)
	var peaks [n]float64
	for _, s := range hp.samples {
		if i := int(s.t.Sub(from) * n / span); i >= 0 && i < n {
			peaks[i] = max(peaks[i], float64(s.live)/(1<<20))
		}
	}
	return median(peaks[:])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
