package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"repro/internal/model"
)

// window is a measurement window on the run's clock (wall ns on sockets,
// virtual ns in the simulator), cut into fixed-width bins so headline
// figures can be reported as medians over bins: one scheduler hiccup
// then moves one bin, not the run.
type window struct {
	start, end int64
	width      int64
}

func (w *window) bin(t int64) (int, bool) {
	if t < w.start || t >= w.end {
		return 0, false
	}
	return int((t - w.start) / w.width), true
}

func (w *window) seconds() float64 { return float64(w.end-w.start) / 1e9 }

// countDelivery counts one delivery at time now into the member's bins.
func (l *latencyLog) countDelivery(w *window, now int64) {
	if w == nil {
		return
	}
	if b, ok := w.bin(now); ok {
		for len(l.perBin) <= b {
			l.perBin = append(l.perBin, 0)
		}
		l.perBin[b]++
	}
}

// latencyLog holds one member's window accounting: deliveries per bin,
// and the latencies (ms) of its own messages by the bin they were due in.
type latencyLog struct {
	perBin  []uint64
	samples [2][][]float32 // [agreed, safe][bin]
}

func svcIndex(svc model.Service) int {
	if svc == model.Safe {
		return 1
	}
	return 0
}

// record adds one latency sample: due and now on the run's clock. A
// refused send records +Inf, so it misses every latency limit.
func (l *latencyLog) record(w *window, svc model.Service, due, now int64) {
	if w == nil {
		return
	}
	b, ok := w.bin(due)
	if !ok {
		return
	}
	s := &l.samples[svcIndex(svc)]
	for len(*s) <= b {
		*s = append(*s, nil)
	}
	v := float32(math.Inf(1))
	if now >= 0 {
		v = float32(now-due) / 1e6
	}
	(*s)[b] = append((*s)[b], v)
}

// chunkMin is the fewest samples a latency quantile is taken over: a p99
// then has at least 20 samples beyond it.
const chunkMin = 2000

// latencyChunks pools consecutive bins of every member's samples for one
// service into chunks of at least chunkMin samples and returns, per
// chunk, the sample slice. Bins are pooled across members by index.
func latencyChunks(logs []*latencyLog, svc int) [][]float64 {
	nb := 0
	for _, l := range logs {
		if n := len(l.samples[svc]); n > nb {
			nb = n
		}
	}
	var chunks [][]float64
	var cur []float64
	for b := 0; b < nb; b++ {
		for _, l := range logs {
			if b < len(l.samples[svc]) {
				for _, v := range l.samples[svc][b] {
					cur = append(cur, float64(v))
				}
			}
		}
		if len(cur) >= chunkMin {
			chunks = append(chunks, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if len(chunks) == 0 || len(cur) >= chunkMin/2 {
			chunks = append(chunks, cur)
		} else {
			last := len(chunks) - 1
			chunks[last] = append(chunks[last], cur...)
		}
	}
	return chunks
}

// quantile returns the q-quantile of xs (sorted in place), nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs (NaN when empty) without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// latencySummary collects per-chunk quantiles across cluster incarnations.
type latencySummary struct {
	p50, p99 [2][]float64
	samples  [2]int
}

func (s *latencySummary) add(logs []*latencyLog) {
	for svc := 0; svc < 2; svc++ {
		for _, c := range latencyChunks(logs, svc) {
			s.samples[svc] += len(c)
			s.p50[svc] = append(s.p50[svc], quantile(c, 0.50))
			s.p99[svc] = append(s.p99[svc], quantile(c, 0.99))
		}
	}
}

// binThroughputs returns, per full bin of the window, the deliveries
// every live member made in it (the minimum over live members), scaled
// to messages per second.
func binThroughputs(logs []*latencyLog, live []bool, w *window) []float64 {
	nb := int((w.end - w.start) / w.width)
	var out []float64
	for b := 0; b < nb; b++ {
		min := uint64(math.MaxUint64)
		for m, l := range logs {
			if !live[m] {
				continue
			}
			var n uint64
			if b < len(l.perBin) {
				n = l.perBin[b]
			}
			if n < min {
				min = n
			}
		}
		out = append(out, float64(min)/(float64(w.width)/1e9))
	}
	return out
}

// windowDelivered returns the deliveries every live member made over the
// whole window.
func windowDelivered(logs []*latencyLog, live []bool) uint64 {
	min := uint64(math.MaxUint64)
	for m, l := range logs {
		if !live[m] {
			continue
		}
		var n uint64
		for _, c := range l.perBin {
			n += c
		}
		if n < min {
			min = n
		}
	}
	if min == math.MaxUint64 {
		return 0
	}
	return min
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
