package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchEnv is the hardware and toolchain a result was measured on.
type benchEnv struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Parallel   int    `json:"parallel"` // min(NumCPU, GOMAXPROCS): the cores a parallel claim can use
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func captureEnv() benchEnv {
	e := benchEnv{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	e.Parallel = min(e.NumCPU, e.GOMAXPROCS)
	return e
}

func (e benchEnv) String() string {
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d parallel=%d go=%s %s/%s",
		e.NumCPU, e.GOMAXPROCS, e.Parallel, e.GoVersion, e.GOOS, e.GOARCH)
}

func printErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent indexes the causing span in the same
// buffer (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Worker int    `json:"worker"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanBuf holds one goroutine's spans in memory until the run ends. A
// nil buffer records nothing, which is how untraced phases run the same
// code.
type spanBuf struct {
	base   time.Time
	worker int
	spans  []span
}

func newSpanBuf(base time.Time, worker int) *spanBuf {
	return &spanBuf{base: base, worker: worker, spans: make([]span, 0, 4096)}
}

// begin opens a span and returns its index for end and for children.
func (b *spanBuf) begin(name string, op int64, parent int) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{
		Name: name, Op: op, Worker: b.worker, Parent: parent,
		Start: int64(time.Since(b.base)),
	})
	return len(b.spans) - 1
}

func (b *spanBuf) end(i int) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].End = int64(time.Since(b.base))
}

// selfTimes maps each span name to its spans' self times: duration minus
// the time its children cover. Children of one span run one after
// another, so their durations add up without overlap.
func selfTimes(bufs []*spanBuf) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, b := range bufs {
		if b == nil {
			continue
		}
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.Parent >= 0 && s.End > 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range b.spans {
			if s.End == 0 {
				continue
			}
			out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-child[i]))
		}
	}
	return out
}

// spanMetric names the per-layer metric carrying a span's median self time.
func spanMetric(name string) string {
	return "span." + strings.ReplaceAll(name, ".", "_") + "_self_us_p50"
}

// spanSelfTimes reports the median self time of every span name.
func spanSelfTimes(bufs []*spanBuf) map[string]float64 {
	out := map[string]float64{}
	for name, d := range selfTimes(bufs) {
		out[spanMetric(name)] = durQuantile(d, 0.50)
	}
	return out
}

// spansNamed returns the durations of every span called name.
func spansNamed(bufs []*spanBuf, name string) []time.Duration {
	var out []time.Duration
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for _, s := range b.spans {
			if s.Name == name && s.End > 0 {
				out = append(out, time.Duration(s.End-s.Start))
			}
		}
	}
	return out
}

// traceFile is what a traced run writes next to its result.
type traceFile struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Env       benchEnv            `json:"env"`
	Untraced  map[string]float64  `json:"untraced_end_to_end"`
	Traced    map[string]float64  `json:"traced_end_to_end"`
	Layers    map[string]float64  `json:"layers"`
	Notes     []string            `json:"notes"`
	SelfTimes map[string]selfTime `json:"self_times"`
	Spans     []span              `json:"spans"`
}

// selfTime summarizes the self times of the spans of one name.
type selfTime struct {
	Count int     `json:"count"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
}

// writeTrace writes the spans and the derived figures to
// trace-<workload>.json in dir.
func writeTrace(cfg config, env benchEnv, traced, plain *phase, layers map[string]float64, notes []string) error {
	tf := traceFile{
		Workload: cfg.workload, Seed: cfg.seed, Env: env,
		Untraced: plain.endToEnd(0), Traced: traced.endToEnd(0),
		Layers: layers, Notes: notes,
	}
	tf.SelfTimes = map[string]selfTime{}
	for name, d := range selfTimes(traced.spans) {
		tf.SelfTimes[name] = selfTime{Count: len(d), P50us: durQuantile(d, 0.5), P99us: durQuantile(d, 0.99)}
	}
	for _, b := range traced.spans {
		if b != nil {
			tf.Spans = append(tf.Spans, b.spans...)
		}
	}
	sort.Slice(tf.Spans, func(i, j int) bool { return tf.Spans[i].Start < tf.Spans[j].Start })
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(cfg.dir, "trace-"+cfg.workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	printErr("trace written to %s (%d spans)", path, len(tf.Spans))
	return nil
}
