package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/cmif"
	"repro/internal/transport"
)

// playback is the viewer's time-to-ready: open a document, schedule it,
// fetch its data blocks. Two workers on two connections share one block
// cache that holds about a third of the corpus blocks, against one
// origin with no data directory. The corpus mixes newsweb documents
// (large, compressible video blocks) and archive documents (small
// incompressible figures); deepnest is left out because its relaxation
// solve would dominate the workload's CPU.
type playback struct {
	srv      *cmif.Server
	addr     string
	reg      *cmif.Metrics // origin server instruments
	schedReg *cmif.Metrics // viewer plan instruments
	cache    *cmif.BlockCache
	clients  []*cmif.Client
	docs     []pbDoc
	want     map[string]wantBlock
	rngs     []*rand.Rand
	// wireBlocks holds, per worker, the Blocks spans that crossed the
	// wire (traced phase only).
	wireBlocks [][]time.Duration
}

type pbDoc struct {
	name     string
	doc      *cmif.Document
	files    []string
	makespan time.Duration
}

// wantBlock is a generated block as the audit expects it back.
type wantBlock struct {
	id      string
	payload []byte
}

const (
	pbWorkers     = 2
	pbDocsByShape = 12
)

func newPlayback(ctx context.Context, seed uint64) (*playback, error) {
	r := &playback{reg: cmif.NewMetrics(), schedReg: cmif.NewMetrics(), want: map[string]wantBlock{}}
	store := cmif.NewStore()
	opts := []cmif.ServeOption{cmif.WithServedStore(store), cmif.WithServerMetrics(r.reg)}
	for i := 0; i < pbDocsByShape; i++ {
		for _, shape := range []cmif.CorpusShape{cmif.CorpusNewsWeb, cmif.CorpusArchive} {
			spec := cmif.CorpusSpec{Shape: shape, Seed: seed*1000 + uint64(len(r.docs)), Size: 3 + i%4}
			doc, st, err := cmif.GenerateCorpus(spec)
			if err != nil {
				return nil, err
			}
			plan, err := cmif.Schedule(doc)
			if err != nil {
				return nil, fmt.Errorf("reference schedule: %w", err)
			}
			d := pbDoc{name: fmt.Sprintf("%s-%d", shape, i), doc: doc, files: doc.ExternalFiles(), makespan: plan.Makespan()}
			for _, f := range d.files {
				b, ok := st.GetByName(f)
				if !ok {
					return nil, fmt.Errorf("corpus %s lacks block %s", d.name, f)
				}
				// Equal payloads share a block under several names.
				store.RegisterName(f, store.Put(b))
				r.want[f] = wantBlock{id: b.ID, payload: b.Payload}
			}
			opts = append(opts, cmif.WithServedDocument(d.name, doc))
			r.docs = append(r.docs, d)
		}
	}
	r.srv = cmif.NewServer(opts...)
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.addr = addr
	r.cache = cmif.NewBlockCache(len(r.want) / 3)
	for w := 0; w < pbWorkers; w++ {
		c, err := cmif.Dial(ctx, addr, cmif.WithSharedCache(r.cache))
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
		r.rngs = append(r.rngs, rand.New(rand.NewSource(int64(seed)*7919+int64(w))))
	}
	r.wireBlocks = make([][]time.Duration, pbWorkers)
	// Warm-up: every worker opens every document once.
	for w := range r.clients {
		for i := range r.docs {
			if _, _, err := r.play(ctx, w, &r.docs[i], -1, nil); err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return r, nil
}

func (r *playback) workers() int { return pbWorkers }

func (r *playback) op(ctx context.Context, w int, k int64, sp *spanBuf) (time.Duration, int64, error) {
	d := &r.docs[r.rngs[w].Intn(len(r.docs))]
	return r.play(ctx, w, d, k, sp)
}

// play is one op: OpenDoc, Schedule, Blocks(ExternalFiles), then the
// audit outside the timed part.
func (r *playback) play(ctx context.Context, w int, d *pbDoc, k int64, sp *spanBuf) (time.Duration, int64, error) {
	c := r.clients[w]
	start := time.Now()
	root := sp.begin("op", k, -1)
	s := sp.begin("cmif.open", k, root)
	doc, err := c.OpenDoc(ctx, d.name)
	sp.end(s)
	if err != nil {
		return 0, 0, fmt.Errorf("open %s: %w", d.name, err)
	}
	s = sp.begin("sched.schedule", k, root)
	plan, err := cmif.Schedule(doc, cmif.WithScheduleMetrics(r.schedReg))
	sp.end(s)
	if err != nil {
		return 0, 0, fmt.Errorf("schedule %s: %w", d.name, err)
	}
	files := doc.ExternalFiles()
	var recv0 int64
	if sp != nil {
		recv0 = c.BytesReceived()
	}
	s = sp.begin("cmif.blocks", k, root)
	blocks, err := c.Blocks(ctx, files)
	sp.end(s)
	if err != nil {
		return 0, 0, fmt.Errorf("blocks %s: %w", d.name, err)
	}
	sp.end(root)
	lat := time.Since(start)
	if sp != nil && c.BytesReceived() > recv0 {
		bs := sp.spans[s]
		r.wireBlocks[w] = append(r.wireBlocks[w], time.Duration(bs.End-bs.Start))
	}

	a := sp.begin("audit", k, -1)
	defer sp.end(a)
	if got := plan.Makespan(); got != d.makespan {
		return lat, 0, fmt.Errorf("%w: %s makespan %v, reference %v", errAudit, d.name, got, d.makespan)
	}
	if !slices.Equal(files, d.files) {
		return lat, 0, fmt.Errorf("%w: %s external files differ", errAudit, d.name)
	}
	var payload int64
	for i, b := range blocks {
		if err := checkBlock(b, files[i], r.want); err != nil {
			return lat, 0, err
		}
		payload += int64(len(b.Payload))
	}
	return lat, payload, nil
}

// checkBlock audits a delivered block against the generated one: the
// same content address and the same bytes, so the payload hashes to its
// ID without rehashing it on every op.
func checkBlock(b *cmif.Block, name string, want map[string]wantBlock) error {
	wb, ok := want[name]
	switch {
	case !ok:
		return fmt.Errorf("%w: unexpected block %s", errAudit, name)
	case b == nil:
		return fmt.Errorf("%w: block %s missing", errAudit, name)
	case b.ID != wb.id:
		return fmt.Errorf("%w: block %s has id %.12s, generated %.12s", errAudit, name, b.ID, wb.id)
	case !bytes.Equal(b.Payload, wb.payload):
		return fmt.Errorf("%w: block %s payload differs from the generated bytes", errAudit, name)
	}
	return nil
}

func (r *playback) wireBytes() int64 {
	var n int64
	for _, c := range r.clients {
		n += c.BytesReceived()
	}
	return n
}

func (r *playback) finalAudit(ctx context.Context) error { return nil }

func (r *playback) extra(p *phase) []namedValue {
	return []namedValue{{"goodput_mb_s", float64(p.payload) / 1e6 / p.elapsed.Seconds(), "MB/s"}}
}

type pbSnapshot struct {
	reg, sched cmif.MetricsSnapshot
	cache      cmif.CacheStats
}

func (r *playback) snapshot() any {
	cs, _ := r.clients[0].CacheStats()
	return pbSnapshot{reg: r.reg.Snapshot(), sched: r.schedReg.Snapshot(), cache: cs}
}

func (r *playback) layers(ctx context.Context, before any, p *phase) (map[string]float64, []string) {
	b := before.(pbSnapshot)
	out := map[string]float64{}
	srv := newRegDelta(b.reg, r.reg)
	sch := newRegDelta(b.sched, r.schedReg)
	ops := float64(p.attempted)

	opens := spansNamed(p.spans, "cmif.open")
	blocks := spansNamed(p.spans, "cmif.blocks")
	out["cmif.open_us_p50"] = durQuantile(opens, 0.50)
	out["cmif.blocks_us_p50"] = durQuantile(blocks, 0.50)
	out["cmif.blocks_us_p99"] = durQuantile(blocks, 0.99)
	out["cmif.goodput_mb_s"] = float64(p.payload) / 1e6 / p.elapsed.Seconds()

	out["transport.server_getdoc_us_mean"] = srv.histMeanUS(reqKey("getdoc"))
	out["transport.server_getblks_us_mean"] = srv.histMeanUS(reqKey("getblks"))
	out["transport.wire_getdoc_us"] = durMean(opens) - out["transport.server_getdoc_us_mean"]
	var wired []time.Duration
	for _, d := range r.wireBlocks {
		wired = append(wired, d...)
	}
	if len(wired) > 0 {
		out["transport.wire_getblks_us"] = durMean(wired) - out["transport.server_getblks_us_mean"]
	}
	responses := srv.counterPrefix("cmif_requests_total")
	out["transport.round_trips_per_op"] = ratio(responses, ops)
	cs, _ := r.clients[0].CacheStats()
	hits, misses := float64(cs.Hits-b.cache.Hits), float64(cs.Misses-b.cache.Misses)
	out["transport.blockcache_hit_ratio"] = ratio(hits, hits+misses)
	out["transport.compressed_frame_ratio"] = ratio(srv.counter("cmif_frames_compressed_total"), responses)
	saved := srv.counter(`cmif_bytes_saved_total{reason="compress"}`)
	out["transport.compress_saved_ratio"] = ratio(saved, saved+float64(p.wire))
	out["transport.busy_rejections"] = srv.counterPrefix("cmif_busy_rejections_total")

	out["sched.full_us_p50"] = histQuantileUS(sch.after, `cmif_schedule_seconds{kind="full"}`, 0.50)
	out["sched.incremental_us_p50"] = histQuantileUS(sch.after, `cmif_schedule_seconds{kind="incremental"}`, 0.50)
	out["sched.full_passes_per_edit"] = ratio(sch.counter(`cmif_schedule_passes_total{kind="full"}`), ops)
	out["sched.incremental_passes_per_edit"] = ratio(sch.counter(`cmif_schedule_passes_total{kind="incremental"}`), ops)

	var notes []string
	// Ladder: the transport client alone, without the facade or a cache.
	tc, err := transport.DialContext(ctx, r.addr, transport.WithFrameCompression(true))
	if err != nil {
		notes = append(notes, fmt.Sprintf("transport ladder skipped: %v", err))
	} else {
		var lerr error
		getdoc := ladder(50, 5000, 300*time.Millisecond, func(i int) {
			if _, err := tc.GetDoc(ctx, r.docs[i%len(r.docs)].name, transport.GetDocOptions{}); err != nil && lerr == nil {
				lerr = err
			}
		})
		getblocks := ladder(50, 5000, 300*time.Millisecond, func(i int) {
			if _, err := tc.GetBlocks(ctx, r.docs[i%len(r.docs)].files); err != nil && lerr == nil {
				lerr = err
			}
		})
		if lerr != nil {
			notes = append(notes, fmt.Sprintf("transport ladder: %v", lerr))
		}
		tc.Close()
		out["transport.getdoc_us_p50"] = durQuantile(getdoc, 0.50)
		out["transport.getblocks_us_p50"] = durQuantile(getblocks, 0.50)
	}

	docs := make([]*cmif.Document, len(r.docs))
	for i := range r.docs {
		docs[i] = r.docs[i].doc
	}
	notes = append(notes, docLadders(docs, out)...)
	var payloads [][]byte
	var ids []string
	for _, name := range sortedKeys(r.want) {
		payloads = append(payloads, r.want[name].payload)
		ids = append(ids, r.want[name].id)
	}
	compressLadder(payloads, out)
	splitLadder(payloads, out)
	out["media.getref_ns"] = getRefLadder(r.srv.Store(), ids)
	dd := r.srv.Store().DedupeStats()
	out["media.dedupe_saved_mb"] = float64(dd.LogicalBytes-dd.UniqueBytes) / (1 << 20)
	notes = append(notes,
		"playback: no edits, WAL, cluster or edge; their layers read 0",
		"playback: sched.*_passes_per_edit are per op (one full viewer schedule each)",
		"playback: transport.server_subscribe_us_mean, submitedit and getblk read 0 (ops not issued)")
	return out, notes
}

func (r *playback) close() {
	for _, c := range r.clients {
		_ = c.Close()
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
}
