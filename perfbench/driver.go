package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phaseWindows is how many equal windows a phase is cut into. Rates and
// per-op costs are the median over the windows, so a burst of noise from
// outside the process moves one window, not the result.
const phaseWindows = 5

// phase is one measured stretch of closed-loop traffic.
type phase struct {
	attempted int64
	completed int64 // attempted minus failed
	failed    int64
	lat       []time.Duration // one per attempted op, sorted; failures count as +Inf
	windows   [phaseWindows]window
	elapsed   time.Duration
	gcCPU     float64    // runtime/metrics GC CPU seconds delta
	totalCPU  float64    // runtime/metrics total CPU seconds delta
	payload   int64      // verified payload bytes delivered
	wire      int64      // bytes the load generator received
	spans     []*spanBuf // traced phases only
}

// window is one slice of a phase: the ops that completed in it and the
// process counters across it.
type window struct {
	dur      time.Duration
	ops      int64
	failed   int64
	lat      []time.Duration
	cpu      time.Duration // process user+sys time
	allocB   uint64        // MemStats.TotalAlloc delta
	heapPeak uint64        // peak heap object bytes, sampled
	wire     int64
}

// counters are the process-wide readings taken at window boundaries.
type counters struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	wire  int64
}

func readCounters(r rig) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{at: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, wire: r.wireBytes()}
}

// failedLatency stands for a failed op in the latency samples: a request
// that fails misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// opSample is one op as a worker saw it.
type opSample struct {
	end time.Duration // since the phase started
	lat time.Duration
	ok  bool
}

// runPhase drives r's workers closed loop for d: each worker issues its
// next op only when the previous one returned. Ops started before the
// deadline run to completion and count in the last window.
func runPhase(ctx context.Context, r rig, d time.Duration, traced bool) *phase {
	n := r.workers()
	p := &phase{}
	samples := make([][]opSample, n)
	payloads := make([]int64, n)
	bufs := make([]*spanBuf, n)
	if traced {
		base := time.Now()
		for w := range bufs {
			bufs[w] = newSpanBuf(base, w)
		}
		p.spans = bufs
	}

	runtime.GC()
	rt0 := readRuntimeCPU()
	start := time.Now()
	deadline := start.Add(d)
	winDur := d / phaseWindows
	marks := []counters{readCounters(r)}

	// The sampler tracks each window's heap peak and reads the counters
	// at every window boundary.
	var peaks [phaseWindows]atomic.Uint64
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		win := 0
		for {
			if win < phaseWindows-1 && time.Since(start) >= time.Duration(win+1)*winDur {
				marks = append(marks, readCounters(r))
				win++
			}
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peaks[win].Load() {
				peaks[win].Store(v)
			}
			select {
			case <-stopSampler:
				return
			case <-tick.C:
			}
		}
	}()

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := next.Add(1) - 1
				lat, payload, err := r.op(ctx, w, k, bufs[w])
				s := opSample{end: time.Since(start), lat: lat, ok: err == nil}
				if err != nil {
					s.lat = failedLatency
					logOpError(err)
				} else {
					payloads[w] += payload
				}
				samples[w] = append(samples[w], s)
			}
		}(w)
	}
	wg.Wait()
	close(stopSampler)
	samplerDone.Wait()
	marks = append(marks, readCounters(r))
	p.elapsed = time.Since(start)
	rt1 := readRuntimeCPU()
	p.gcCPU, p.totalCPU = rt1.gc-rt0.gc, rt1.total-rt0.total

	// A window whose boundary the sampler missed (a phase shorter than a
	// tick) folds into the next one.
	for len(marks) < phaseWindows+1 {
		marks = append(marks[:len(marks)-1], marks[len(marks)-1], marks[len(marks)-1])
	}
	for i := range p.windows {
		wi := &p.windows[i]
		a, b := marks[i], marks[i+1]
		wi.dur, wi.cpu, wi.allocB, wi.wire = b.at.Sub(a.at), b.cpu-a.cpu, b.alloc-a.alloc, b.wire-a.wire
		wi.heapPeak = peaks[i].Load()
	}
	for w := range samples {
		for _, s := range samples[w] {
			i := sort.Search(phaseWindows, func(i int) bool { return marks[i+1].at.Sub(start) >= s.end })
			if i >= phaseWindows {
				i = phaseWindows - 1
			}
			wi := &p.windows[i]
			wi.ops++
			wi.lat = append(wi.lat, s.lat)
			if !s.ok {
				wi.failed++
				p.failed++
			}
			p.lat = append(p.lat, s.lat)
		}
		p.payload += payloads[w]
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	for i := range p.windows {
		sort.Slice(p.windows[i].lat, func(a, b int) bool { return p.windows[i].lat[a] < p.windows[i].lat[b] })
		p.wire += p.windows[i].wire
	}
	p.attempted = int64(len(p.lat))
	p.completed = p.attempted - p.failed
	return p
}

var opErrorsLogged atomic.Int64

// logOpError prints the first few op failures; the count is in the result.
func logOpError(err error) {
	if opErrorsLogged.Add(1) <= 5 {
		printErr("op failed: %v", err)
	}
}

// quantile is the nearest-rank q-quantile of sorted latencies, in ms.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(sorted[i])
}

// latencyQuantile is the q-quantile of every op latency in the phase.
func (p *phase) latencyQuantile(q float64) float64 { return quantile(p.lat, q) }

// beyond counts the samples above the q-quantile: the tail's support.
func (p *phase) beyond(q float64) int {
	i := int(math.Ceil(q*float64(len(p.lat)))) - 1
	if i < 0 {
		return len(p.lat)
	}
	return len(p.lat) - 1 - i
}

// windowMedian is the median over the phase's windows of f.
func (p *phase) windowMedian(f func(w *window) float64) float64 {
	v := make([]float64, 0, phaseWindows)
	for i := range p.windows {
		v = append(v, f(&p.windows[i]))
	}
	return median(v)
}

func (p *phase) opsPerSec() float64 {
	return p.windowMedian(func(w *window) float64 {
		if w.dur <= 0 {
			return 0
		}
		return float64(w.ops-w.failed) / w.dur.Seconds()
	})
}

func (p *phase) failFrac() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempted)
}

func (p *phase) gcCPUFrac() float64 {
	if p.totalCPU <= 0 {
		return -1
	}
	return p.gcCPU / p.totalCPU
}

// perOp is the median over windows of f divided by the window's ops.
func (p *phase) perOp(f func(w *window) float64) float64 {
	return p.windowMedian(func(w *window) float64 {
		if w.ops == 0 {
			return 0
		}
		return f(w) / float64(w.ops)
	})
}

// endToEnd computes the metrics BENCHMARK.json lists under end_to_end.
// Every figure but setup_s is a median over the phase's windows.
func (p *phase) endToEnd(setup float64) map[string]float64 {
	return map[string]float64{
		"setup_s":         setup,
		"ops_per_s":       p.opsPerSec(),
		"latency_p50_ms":  p.windowMedian(func(w *window) float64 { return quantile(w.lat, 0.50) }),
		"latency_p99_ms":  p.windowMedian(func(w *window) float64 { return quantile(w.lat, 0.99) }),
		"cpu_ms_per_op":   p.perOp(func(w *window) float64 { return ms(w.cpu) }),
		"alloc_kb_per_op": p.perOp(func(w *window) float64 { return float64(w.allocB) / 1024 }),
		"heap_peak_mb":    p.windowMedian(func(w *window) float64 { return float64(w.heapPeak) / (1 << 20) }),
		"wire_kb_per_op":  p.perOp(func(w *window) float64 { return float64(w.wire) / 1024 }),
	}
}

// endToEndUnits are the units of the end-to-end metrics.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"latency_p50_ms":  "ms",
	"latency_p99_ms":  "ms",
	"cpu_ms_per_op":   "ms",
	"alloc_kb_per_op": "KiB",
	"heap_peak_mb":    "MiB",
	"wire_kb_per_op":  "KiB",
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// processCPU is the process's user plus system CPU time (getrusage);
// every tier runs in this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeCPU struct{ gc, total float64 }

func readRuntimeCPU() runtimeCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

// median of a non-empty sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durQuantile is the nearest-rank q-quantile of d in microseconds.
func durQuantile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return us(s[i])
}

// durMean is the mean of d in microseconds.
func durMean(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return us(sum) / float64(len(d))
}
