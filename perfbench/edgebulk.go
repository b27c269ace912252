package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/cmif"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/media"
)

// edgeBulk is the local tier under bulk reads: two workers on two
// connections fetch single blocks through a cmif.Edge with a disk cache,
// in front of an origin. The blocks are the S9 dup-corpus shape: 96
// near-duplicate, incompressible 256 KiB payloads. The edge's memory
// cache holds 16 of them, so most fetches come off its disk cache; each
// client carries an 8 MiB chunk cache. Bytes dominate: the scheduler,
// the WAL and the live hub do nothing here, and compression attempts
// are bypassed.
type edgeBulk struct {
	dir       string
	origin    *cmif.Server
	originReg *cmif.Metrics
	edge      *cmif.Edge
	edgeReg   *cmif.Metrics
	clients   []*cmif.Client
	names     []string
	want      map[string]wantBlock
	rngs      []*rand.Rand
}

const (
	ebWorkers     = 2
	ebBlocks      = 96
	ebBlockBytes  = 256 << 10
	ebSpliceBytes = 256
	ebMemBlocks   = 16
	ebChunkCache  = 8 << 20
)

func newEdgeBulk(ctx context.Context, seed uint64, dir string) (*edgeBulk, error) {
	r := &edgeBulk{dir: dir, originReg: cmif.NewMetrics(), edgeReg: cmif.NewMetrics(), want: map[string]wantBlock{}}
	store := cmif.NewStore()
	r.names = dupCorpus(store, seed, r.want)
	r.origin = cmif.NewServer(cmif.WithServedStore(store), cmif.WithServerMetrics(r.originReg))
	addr, err := r.origin.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.edge, err = cmif.NewEdge(
		cmif.WithOrigin(addr),
		cmif.WithCacheDir(filepath.Join(dir, "edge-cache")),
		cmif.WithEdgeMemBlocks(ebMemBlocks),
		cmif.WithEdgeMetrics(r.edgeReg),
	)
	if err != nil {
		r.close()
		return nil, err
	}
	edgeAddr, err := r.edge.Listen("127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	for w := 0; w < ebWorkers; w++ {
		c, err := cmif.Dial(ctx, edgeAddr, cmif.WithChunkCache(ebChunkCache))
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
		r.rngs = append(r.rngs, rand.New(rand.NewSource(int64(seed)*6271+int64(w))))
	}
	// Warm-up: pull every block through the edge onto its disk cache,
	// then let each worker fetch a few.
	for _, name := range r.names {
		if _, _, err := r.fetch(ctx, 0, name, -1, nil); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	for w := range r.clients {
		for i := 0; i < ebMemBlocks; i++ {
			if _, _, err := r.op(ctx, w, -1, nil); err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return r, nil
}

// dupCorpus stores the dup corpus: one random base, and per block a
// fresh random splice at a block-specific offset, so the blocks share
// most content-defined chunks but no two payloads are equal.
func dupCorpus(store *cmif.Store, seed uint64, want map[string]wantBlock) []string {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x59a7))
	base := make([]byte, ebBlockBytes)
	rng.Read(base)
	names := make([]string, ebBlocks)
	for i := range names {
		p := append([]byte(nil), base...)
		off := (i * 8191) % (ebBlockBytes - ebSpliceBytes)
		rng.Read(p[off : off+ebSpliceBytes])
		names[i] = fmt.Sprintf("dup-%04d.raw", i)
		b := media.NewBlock(names[i], core.MediumVideo, p, attr.List{})
		store.Put(b)
		want[names[i]] = wantBlock{id: b.ID, payload: p}
	}
	return names
}

func (r *edgeBulk) workers() int { return ebWorkers }

func (r *edgeBulk) op(ctx context.Context, w int, k int64, sp *spanBuf) (time.Duration, int64, error) {
	return r.fetch(ctx, w, r.names[r.rngs[w].Intn(len(r.names))], k, sp)
}

func (r *edgeBulk) fetch(ctx context.Context, w int, name string, k int64, sp *spanBuf) (time.Duration, int64, error) {
	start := time.Now()
	root := sp.begin("op", k, -1)
	s := sp.begin("cmif.block", k, root)
	b, err := r.clients[w].Block(ctx, name)
	sp.end(s)
	sp.end(root)
	lat := time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("block %s: %w", name, err)
	}
	a := sp.begin("audit", k, -1)
	defer sp.end(a)
	if err := checkBlock(b, name, r.want); err != nil {
		return lat, 0, err
	}
	return lat, int64(len(b.Payload)), nil
}

func (r *edgeBulk) wireBytes() int64 {
	var n int64
	for _, c := range r.clients {
		n += c.BytesReceived()
	}
	return n
}

func (r *edgeBulk) finalAudit(ctx context.Context) error { return nil }

func (r *edgeBulk) extra(p *phase) []namedValue {
	return []namedValue{{"goodput_mb_s", float64(p.payload) / 1e6 / p.elapsed.Seconds(), "MB/s"}}
}

type ebSnapshot struct {
	edge, origin cmif.MetricsSnapshot
	upstream     int64
	dedupe       int64
	chunkHits    int64
	chunkMisses  int64
}

func (r *edgeBulk) chunkStats() (hits, misses int64) {
	for _, c := range r.clients {
		if st, ok := c.ChunkCacheStats(); ok {
			hits += st.Hits
			misses += st.Misses
		}
	}
	return hits, misses
}

func (r *edgeBulk) snapshot() any {
	s := ebSnapshot{edge: r.edgeReg.Snapshot(), origin: r.originReg.Snapshot(), upstream: r.edge.UpstreamRoundTrips()}
	for _, c := range r.clients {
		s.dedupe += c.DedupeFetches()
	}
	s.chunkHits, s.chunkMisses = r.chunkStats()
	return s
}

func (r *edgeBulk) layers(ctx context.Context, before any, p *phase) (map[string]float64, []string) {
	b := before.(ebSnapshot)
	out := map[string]float64{}
	var notes []string
	ops := float64(p.attempted)
	ed := newRegDelta(b.edge, r.edgeReg)
	or := newRegDelta(b.origin, r.originReg)

	spans := spansNamed(p.spans, "cmif.block")
	out["cmif.blocks_us_p50"] = durQuantile(spans, 0.50)
	out["cmif.blocks_us_p99"] = durQuantile(spans, 0.99)
	out["cmif.goodput_mb_s"] = float64(p.payload) / 1e6 / p.elapsed.Seconds()

	getblk, manifest := reqKey("getblk"), reqKey("getblkmanifest")
	out["transport.server_getblk_us_mean"] = ed.histMeanUS(getblk)
	out["transport.server_getblkmanifest_us_mean"] = ed.histMeanUS(manifest)
	// One Client.Block is a manifest request and then, with no manifest
	// to dedupe against, a plain fetch: the wire share is the span minus
	// the edge's time on both.
	server := ratio(ed.histSumUS(getblk)+ed.histSumUS(manifest), ops)
	out["transport.wire_getblk_us"] = durMean(spans) - server
	responses := ed.counterPrefix("cmif_requests_total")
	out["transport.round_trips_per_op"] = ratio(responses, ops)
	out["transport.compressed_frame_ratio"] = ratio(ed.counter("cmif_frames_compressed_total"), responses)
	saved := ed.counter(`cmif_bytes_saved_total{reason="compress"}`)
	out["transport.compress_saved_ratio"] = ratio(saved, saved+float64(p.wire))
	var dedupe int64
	for _, c := range r.clients {
		dedupe += c.DedupeFetches()
	}
	out["transport.dedupe_fetch_ratio"] = ratio(float64(dedupe-b.dedupe), ops)
	hits, misses := r.chunkStats()
	dh, dm := float64(hits-b.chunkHits), float64(misses-b.chunkMisses)
	out["transport.chunkcache_hit_ratio"] = ratio(dh, dh+dm)
	out["transport.busy_rejections"] = ed.counterPrefix("cmif_busy_rejections_total") + or.counterPrefix("cmif_busy_rejections_total")

	eh := ed.counter("cmif_edge_block_hits_total")
	edh := ed.counter("cmif_edge_block_disk_hits_total")
	em := ed.counter("cmif_edge_block_misses_total")
	out["edge.mem_hit_ratio"] = ratio(eh-edh, eh+em)
	out["edge.disk_hit_ratio"] = ratio(edh, eh+em)
	out["edge.upstream_trips_per_op"] = ratio(float64(r.edge.UpstreamRoundTrips()-b.upstream), ops)

	var payloads [][]byte
	var ids []string
	for _, name := range r.names {
		payloads = append(payloads, r.want[name].payload)
		ids = append(ids, r.want[name].id)
	}
	compressLadder(payloads, out)
	splitLadder(payloads, out)
	out["media.getref_ns"] = getRefLadder(r.origin.Store(), ids)
	dd := r.origin.Store().DedupeStats()
	out["media.dedupe_saved_mb"] = float64(dd.LogicalBytes-dd.UniqueBytes) / (1 << 20)

	// Ladder: the disk cache alone, over the workload's blocks.
	ladderDir := filepath.Join(r.dir, "ladder-cache")
	dc, err := edge.OpenDiskCache(ladderDir, 0)
	if err != nil {
		notes = append(notes, fmt.Sprintf("disk cache ladder skipped: %v", err))
	} else {
		for _, name := range r.names {
			if blk, ok := r.origin.Store().GetByName(name); ok {
				dc.Put(name, blk)
			}
		}
		var missed int
		get := ladder(len(r.names), 100*len(r.names), ladderMinDur, func(i int) {
			if _, ok := dc.Get(r.names[i%len(r.names)]); !ok {
				missed++
			}
		})
		out["edge.disk_get_us"] = durMean(get)
		if missed > 0 {
			notes = append(notes, fmt.Sprintf("disk cache ladder: %d misses", missed))
		}
	}
	notes = append(notes,
		"edge-bulk: no documents, edits, WAL or cluster; codec docs, sched, edit, durable and cluster metrics read 0",
		"edge-bulk: the edge answers manifest requests for loader-fetched blocks with an empty manifest, so dedupe fetches stay 0")
	return out, notes
}

func (r *edgeBulk) close() {
	for _, c := range r.clients {
		_ = c.Close()
	}
	if r.edge != nil {
		_ = r.edge.Close()
	}
	if r.origin != nil {
		_ = r.origin.Close()
	}
	if err := os.RemoveAll(r.dir); err != nil {
		printErr("remove %s: %v", r.dir, err)
	}
}
