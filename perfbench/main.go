// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads through the public cmif facade against
// in-process origin, edge and cluster servers on loopback, checks every
// output, and prints the metrics BENCHMARK.json names as one JSON object
// on the last line of standard output.
//
//	perfbench --workload playback|live-edit|edge-bulk --seed N --seconds S --trace 0|1
//	perfbench --smoke
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload half untraced and half traced, replays the
// workload's inputs against single modules (the ladder), and prints the
// per-layer metrics; the spans go to trace-<workload>.json under --dir.
// METRICS.md is the glossary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run builds its rig; setup_s is the
// median, so one slow start does not move it.
const setupReps = 5

// warmup is the longest warm traffic before the measured phases.
const warmup = 2 * time.Second

// workloadNames lists the workloads in the order --smoke runs them.
var workloadNames = []string{"playback", "live-edit", "edge-bulk"}

// config is what a run was asked to do.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch directory inside the checkout
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var smoke bool
	flag.StringVar(&cfg.workload, "workload", "", "playback, live-edit or edge-bulk")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0 for end-to-end metrics, 1 for the traced per-layer run")
	flag.BoolVar(&smoke, "smoke", false, "run every workload briefly in both modes and check the output")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1

	env := captureEnv()
	fmt.Fprintf(os.Stderr, "perfbench: env %s\n", env)
	if env.GOMAXPROCS > env.NumCPU {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS=%d exceeds NumCPU=%d; parallel results would time-slice one core, refusing to report\n",
			env.GOMAXPROCS, env.NumCPU)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatalf("scratch dir: %v", err)
	}

	if smoke {
		if err := runSmoke(cfg); err != nil {
			fatalf("smoke: %v", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: smoke passed")
		return
	}
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	res, err := run(cfg, env)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// rig is one workload's running system plus its load generator.
type rig interface {
	// workers is the closed-loop worker count.
	workers() int
	// op runs operation k on worker w. lat is the operation's latency,
	// measured by the rig so that the output audit stays outside it;
	// payload counts the verified payload bytes it delivered. An error
	// (transport failure, busy rejection, timeout or audit mismatch)
	// fails the operation.
	op(ctx context.Context, w int, k int64, sp *spanBuf) (lat time.Duration, payload int64, err error)
	// wireBytes is what the load generator's connections have received.
	wireBytes() int64
	// finalAudit checks the end state after the measured phases.
	finalAudit(ctx context.Context) error
	// extra returns workload-specific figures of a phase for the table.
	extra(p *phase) []namedValue
	// snapshot reads the counters the per-layer metrics are deltas of,
	// just before the traced phase.
	snapshot() any
	// layers gathers the per-layer metrics of the traced phase p against
	// the snapshot before, runs the ladders, and returns notes on what
	// could not be measured.
	layers(ctx context.Context, before any, p *phase) (map[string]float64, []string)
	close()
}

// namedValue is a figure printed to the human-readable table only.
type namedValue struct {
	name  string
	value float64
	unit  string
}

var errAudit = errors.New("audit mismatch")

// newRig builds the named workload's rig; the build is what setup_s times.
func newRig(ctx context.Context, cfg config, rep int) (rig, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("work-%d-%d", os.Getpid(), rep))
	switch cfg.workload {
	case "playback":
		return newPlayback(ctx, cfg.seed)
	case "live-edit":
		return newLiveEdit(ctx, cfg.seed, dir)
	case "edge-bulk":
		return newEdgeBulk(ctx, cfg.seed, dir)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
}

// run measures one workload and returns its result line.
func run(cfg config, env benchEnv) (*result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var setups []float64
	var r rig
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		start := time.Now()
		built, err := newRig(ctx, cfg, rep)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < setupReps-1 {
			built.close()
			continue
		}
		r = built
	}
	defer r.close()
	setup := median(setups)

	measure := time.Duration(cfg.seconds * float64(time.Second))
	// Warm traffic, discarded: lets caches, pools and the heap settle.
	if warm := runPhase(ctx, r, min(warmup, measure/5), false); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed", warm.failed, warm.attempted)
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	if !cfg.trace {
		p := runPhase(ctx, r, measure, false)
		if err := r.finalAudit(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: final audit: %v\n", err)
			res.Correct = false
		}
		res.Attempted, res.Failed = p.attempted, p.failed
		if p.failed > 0 || p.completed == 0 {
			res.Correct = false
		}
		for name, v := range p.endToEnd(setup) {
			res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
		}
		printTable(cfg, p, r.extra(p), res)
		return res, nil
	}

	// Traced run: an untraced half for the overhead baseline, then a
	// traced half that every per-layer figure comes from.
	plain := runPhase(ctx, r, measure/2, false)
	before := r.snapshot()
	traced := runPhase(ctx, r, measure/2, true)
	auditErr := r.finalAudit(ctx)
	layers, notes := r.layers(ctx, before, traced)
	for name, v := range spanSelfTimes(traced.spans) {
		layers[name] = v
	}
	if p50 := plain.latencyQuantile(0.50); p50 > 0 {
		layers["trace.overhead_latency_p50_frac"] = (traced.latencyQuantile(0.50) - p50) / p50
	}
	if plain.opsPerSec() > 0 && traced.opsPerSec() > 0 {
		layers["trace.overhead_ops_per_s_frac"] = (plain.opsPerSec() - traced.opsPerSec()) / plain.opsPerSec()
	}
	if gc := traced.gcCPUFrac(); gc >= 0 {
		layers["runtime.gc_cpu_frac"] = gc
	}
	if auditErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: final audit: %v\n", auditErr)
		res.Correct = false
	}
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	if res.Failed > 0 || traced.completed == 0 {
		res.Correct = false
	}
	for _, def := range perLayer {
		res.Metrics[def.name] = metric{Value: layers[def.name], Unit: def.unit}
	}
	for name := range layers {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("layer metric %q is not declared", name)
		}
	}
	if err := writeTrace(cfg, env, traced, plain, layers, notes); err != nil {
		return nil, err
	}
	printTable(cfg, traced, r.extra(traced), res)
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "perfbench: note: %s\n", n)
	}
	return res, nil
}

// printTable writes the human-readable summary to standard error.
func printTable(cfg config, p *phase, extra []namedValue, res *result) {
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d trace=%v ops=%d failed=%d fail_frac=%g latency samples=%d beyond p99=%d\n",
		cfg.workload, cfg.seed, cfg.trace, p.attempted, p.failed, p.failFrac(), len(p.lat), p.beyond(0.99))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", "fail_frac", p.failFrac(), "ratio")
	for _, e := range extra {
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", e.name, e.value, e.unit)
	}
}
