package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/transport"
)

// The wire bench measures the transport layer itself under concurrent
// load: the S3 scenarios cross two connection disciplines on the same
// protocol — serial (one request in flight at a time per connection:
// workers queue on a head-of-line-blocked connection, the discipline
// the retired protocol v1 imposed) and mux (pipelined in-flight
// requests on one connection) — at increasing worker counts, plus a
// huge-block transfer that only the chunked stream can carry at all.

// WireBenchConfig sizes the S3 scenarios. The zero value is usable:
// 64 blocks of 1 KiB (attribute-cluster-sized payloads, so the protocol
// overhead dominates rather than memory bandwidth), 1/16/64 workers,
// 128 fetches per worker, and a 65 MiB huge block — past the 64 MiB
// frame limit, so it can only travel through the chunked stream.
type WireBenchConfig struct {
	// Blocks is the corpus size; BlockBytes each payload's size.
	Blocks     int `json:"blocks"`
	BlockBytes int `json:"block_bytes"`
	// Workers lists the concurrent logical-client counts to run each
	// scenario at; all workers share ONE connection, so the scenarios
	// compare connection disciplines, not connection counts.
	Workers []int `json:"workers"`
	// FetchesPerWorker is how many single-block fetches each worker
	// performs, round-robin over the corpus.
	FetchesPerWorker int `json:"fetches_per_worker"`
	// HugeBlockBytes sizes the streamed-transfer probe; a block this big
	// is registered alongside the corpus and fetched once. Non-positive
	// disables the probe.
	HugeBlockBytes int64 `json:"huge_block_bytes"`
}

func (c *WireBenchConfig) fillDefaults() {
	if c.Blocks <= 0 {
		c.Blocks = 64
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = 1 << 10
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 16, 64}
	}
	if c.FetchesPerWorker <= 0 {
		c.FetchesPerWorker = 128
	}
	if c.HugeBlockBytes == 0 {
		c.HugeBlockBytes = 65 << 20
	}
}

// WireBenchRow is one (scenario, worker count) measurement.
type WireBenchRow struct {
	// Scenario is serial or mux-v2.
	Scenario string `json:"scenario"`
	Workers  int    `json:"workers"`
	// Fetches is the total number of blocks delivered to callers.
	Fetches int `json:"fetches"`
	// WireCalls is how many requests actually crossed the network.
	WireCalls int64 `json:"wire_calls"`
	// BytesReceived sums response traffic.
	BytesReceived int64 `json:"bytes_received"`
	// Seconds is wall-clock time for the whole scenario.
	Seconds float64 `json:"seconds"`
	// BlocksPerSec is Fetches / Seconds.
	BlocksPerSec float64 `json:"blocks_per_sec"`
}

// WireHugeResult records the huge-block transfer probe.
type WireHugeResult struct {
	// Bytes is the block's payload size.
	Bytes int64 `json:"bytes"`
	// Chunks is how many stream chunk frames carried it.
	Chunks int64 `json:"chunks"`
	// Seconds and MBPerSec time the streamed retrieval.
	Seconds  float64 `json:"seconds"`
	MBPerSec float64 `json:"mb_per_sec"`
	// Streamed reports the fetch arrived via the chunked stream.
	Streamed bool `json:"streamed"`
}

// WireBenchReport is the machine-readable result set cmifbench writes to
// BENCH_wire.json.
type WireBenchReport struct {
	Config WireBenchConfig `json:"config"`
	Env    BenchEnv        `json:"env"`
	Rows   []WireBenchRow  `json:"rows"`
	// SpeedupMux16 is throughput(mux-v2) over throughput(serial) at
	// 16 workers — the headline pipelining win.
	SpeedupMux16 float64 `json:"speedup_mux_vs_serial_16_workers"`
	// Huge is the streamed-transfer probe; nil when disabled.
	Huge *WireHugeResult `json:"huge_block,omitempty"`
}

// JSON renders the report for BENCH_wire.json.
func (r *WireBenchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the experiment-table format.
func (r *WireBenchReport) Table() *Table {
	t := &Table{
		ID:    "S3",
		Title: "wire protocol under concurrent load (one connection)",
		Header: []string{"scenario", "workers", "fetches", "wire calls",
			"MiB recv", "seconds", "blocks/s"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scenario,
			fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%d", row.Fetches),
			fmt.Sprintf("%d", row.WireCalls),
			fmt.Sprintf("%.2f", float64(row.BytesReceived)/(1<<20)),
			fmt.Sprintf("%.3f", row.Seconds),
			fmt.Sprintf("%.0f", row.BlocksPerSec),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mux-v2 over serial at 16 workers: %.1fx", r.SpeedupMux16),
		"expect: pipelining amortizes per-request latency that head-of-line blocking pays in full")
	if r.Huge != nil {
		status := "failed"
		if r.Huge.Streamed {
			status = fmt.Sprintf("streamed in %d chunks at %.0f MB/s", r.Huge.Chunks, r.Huge.MBPerSec)
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("huge block (%.0f MiB): %s", float64(r.Huge.Bytes)/(1<<20), status))
	}
	return t
}

// WireBench runs the S3 scenarios against an in-process server and
// returns the measurements. The context bounds every wire operation.
func WireBench(ctx context.Context, cfg WireBenchConfig) (*WireBenchReport, error) {
	cfg.fillDefaults()

	store := media.NewStore()
	names := make([]string, cfg.Blocks)
	side := 1
	for side*side < cfg.BlockBytes {
		side++
	}
	for i := range names {
		names[i] = fmt.Sprintf("wire-%04d.img", i)
		store.Put(media.CaptureImage(names[i], side, side, uint64(i)+1))
	}
	const hugeName = "wire-huge.raw"
	if cfg.HugeBlockBytes > 0 {
		payload := make([]byte, cfg.HugeBlockBytes)
		for i := range payload {
			payload[i] = byte(i * 131)
		}
		store.Put(media.NewBlock(hugeName, core.MediumImage, payload, attr.List{}))
	}

	srv := transport.NewServer(transport.NewRegistry(store))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	report := &WireBenchReport{Config: cfg, Env: CaptureBenchEnv()}
	for _, scenario := range []string{"serial", "mux-v2"} {
		for _, workers := range cfg.Workers {
			row, err := runWireScenario(ctx, addr, names, cfg, scenario, workers)
			if err != nil {
				return nil, fmt.Errorf("wirebench %s/%d: %w", scenario, workers, err)
			}
			report.Rows = append(report.Rows, row)
		}
	}

	rows := map[string]map[int]WireBenchRow{}
	for _, row := range report.Rows {
		if rows[row.Scenario] == nil {
			rows[row.Scenario] = map[int]WireBenchRow{}
		}
		rows[row.Scenario][row.Workers] = row
	}
	if serial, ok := rows["serial"][16]; ok && serial.BlocksPerSec > 0 {
		if mux, ok := rows["mux-v2"][16]; ok {
			report.SpeedupMux16 = mux.BlocksPerSec / serial.BlocksPerSec
		}
	}

	if cfg.HugeBlockBytes > 0 {
		huge, err := runWireHuge(ctx, addr, hugeName, cfg.HugeBlockBytes)
		if err != nil {
			return nil, fmt.Errorf("wirebench huge: %w", err)
		}
		report.Huge = huge
	}
	return report, nil
}

// runWireScenario drives one (scenario, workers) cell: all workers share
// one protocol-v2 connection — serialized by a bench-side lock around
// each fetch, or pipelined — and fetch blocks one at a time, round-robin
// over the corpus.
func runWireScenario(ctx context.Context, addr string, names []string, cfg WireBenchConfig, scenario string, workers int) (WireBenchRow, error) {
	row := WireBenchRow{Scenario: scenario, Workers: workers}
	const version = 2
	c, err := transport.DialContext(ctx, addr, transport.WithMaxProtocolVersion(version))
	if err != nil {
		return row, err
	}
	defer c.Close()
	if c.Version() != version {
		return row, fmt.Errorf("negotiated v%d, want v%d", c.Version(), version)
	}
	var serial sync.Mutex
	fetch := func(name string) error {
		if scenario == "serial" {
			serial.Lock()
			defer serial.Unlock()
		}
		_, err := c.GetBlock(ctx, name)
		return err
	}

	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < cfg.FetchesPerWorker; j++ {
				if err := fetch(names[(i+j)%len(names)]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return row, err
		}
	}
	row.Fetches = workers * cfg.FetchesPerWorker
	row.WireCalls = c.RoundTrips()
	row.BytesReceived = c.BytesReceived()
	row.Seconds = elapsed.Seconds()
	if row.Seconds > 0 {
		row.BlocksPerSec = float64(row.Fetches) / row.Seconds
	}
	return row, nil
}

// runWireHuge fetches the huge block, expecting a chunked stream.
func runWireHuge(ctx context.Context, addr, name string, size int64) (*WireHugeResult, error) {
	res := &WireHugeResult{Bytes: size}

	c, err := transport.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	start := time.Now()
	blk, err := c.GetBlock(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("streamed fetch: %w", err)
	}
	res.Seconds = time.Since(start).Seconds()
	if int64(len(blk.Payload)) != size {
		return nil, fmt.Errorf("streamed fetch returned %d of %d bytes", len(blk.Payload), size)
	}
	res.Chunks = c.StreamChunks()
	res.Streamed = res.Chunks > 0
	if res.Seconds > 0 {
		res.MBPerSec = float64(size) / (1 << 20) / res.Seconds
	}

	return res, nil
}
