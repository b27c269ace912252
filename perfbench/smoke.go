package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smokeSeconds is the measured time of each smoke run.
const smokeSeconds = 2

// runSmoke runs every workload briefly, untraced and traced, and checks
// that each result names exactly the metrics BENCHMARK.json declares,
// with their units, that no op failed and that the audits passed.
func runSmoke(cfg config) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			return fmt.Errorf("BENCHMARK.json workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	env := captureEnv()
	for _, w := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			c := cfg
			c.workload, c.seconds, c.trace = w, smokeSeconds, trace == 1
			res, err := run(c, env)
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				return fmt.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[trace]) {
				return fmt.Errorf("%s trace=%d: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					return fmt.Errorf("%s trace=%d: metric %s missing", w, trace, name)
				case m.Unit != unit:
					return fmt.Errorf("%s trace=%d: metric %s in %s, BENCHMARK.json says %s", w, trace, name, m.Unit, unit)
				case trace == 0 && m.Value <= 0:
					return fmt.Errorf("%s: end-to-end metric %s reads %g", w, name, m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "perfbench: smoke %s trace=%d ok (%d ops)\n", w, trace, res.Attempted)
		}
	}
	return nil
}
