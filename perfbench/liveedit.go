package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/cmif"
	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/edit"
	"repro/internal/transport"
	"repro/internal/units"
)

// liveEdit is the write path: one closed-loop writer edits one leaf of
// a 2000-leaf par-of-seq document (the S6 shape) held by a three-node
// cluster at R=3, and an op lasts until all eight subscribers show the
// new value. Half the subscribers watch the document's primary, half
// one replica; the writer and the primary's subscribers share one
// connection, the replica's subscribers another.
//
// Visibility is judged by the edited value, not by generation: a
// replica re-registers the whole document on every replicated edit,
// which resets its generation and pushes a snapshot.
type liveEdit struct {
	dir      string
	nodes    []*cmif.ClusterNode
	regs     []*cmif.Metrics
	primary  int // index into nodes
	replica  int
	prim     *cmif.Client // writer plus the primary's subscribers
	repl     *cmif.Client // the replica's subscribers
	schedReg *cmif.Metrics
	doc      *cmif.Document
	leaves   []string // edit targets, in seeded order
	seq      int64    // edits submitted; only the writer touches it

	subs      []*liveSub
	subCancel context.CancelFunc
	subWG     sync.WaitGroup
	subErrs   atomic.Int64

	mu      sync.Mutex
	tgt     liveTarget
	visible [2][]time.Duration // by subscriber group: primary, replica
	acks    []time.Duration    // this phase's commit latencies; writer-owned
	recent  []editRec          // the last edits (ladder input); writer-owned

	probes *liveProbes
}

type liveSub struct {
	sub   *cmif.Subscription
	group int // 0 watches the primary, 1 the replica
	seen  int64
}

// liveTarget is the edit in flight: subscribers count down pending as
// each first shows value at path.
type liveTarget struct {
	k       int64
	path    string
	value   cmif.Value
	pending int
	done    chan struct{}
	start   time.Time
}

type editRec struct {
	path string
	ms   int64
}

const (
	liveDocName     = "live"
	liveLeaves      = 2000
	liveArms        = 32
	liveArcsPerMil  = 20
	liveSubsPerNode = 4
	liveVisibleWait = 10 * time.Second
	liveWarmEdits   = 8
)

func newLiveEdit(ctx context.Context, seed uint64, dir string) (*liveEdit, error) {
	r := &liveEdit{dir: dir, schedReg: cmif.NewMetrics()}
	doc, leaves, err := parOfSeq(seed, liveLeaves, liveArms, liveArcsPerMil)
	if err != nil {
		return nil, err
	}
	r.doc = doc
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	r.leaves = leaves

	var peers []string
	for i := 0; i < 3; i++ {
		reg := cmif.NewMetrics()
		node, err := cmif.JoinCluster(
			cmif.WithNodeDataDir(filepath.Join(dir, fmt.Sprintf("node%d", i))),
			cmif.WithClusterPeers(peers...),
			cmif.WithReplicationFactor(3),
			cmif.WithGossipInterval(50*time.Millisecond),
			cmif.WithNodeMetrics(reg),
		)
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, node)
		r.regs = append(r.regs, reg)
		peers = append(peers, node.Addr())
	}
	if err := r.converge(ctx); err != nil {
		r.close()
		return nil, err
	}

	r.prim, err = cmif.Dial(ctx, r.nodes[r.primary].Addr())
	if err != nil {
		r.close()
		return nil, err
	}
	if err := r.prim.Put(ctx, liveDocName, doc, cmif.WithBinaryWire()); err != nil {
		r.close()
		return nil, fmt.Errorf("put: %w", err)
	}
	r.repl, err = cmif.Dial(ctx, r.nodes[r.replica].Addr())
	if err != nil {
		r.close()
		return nil, err
	}
	subCtx, cancel := context.WithCancel(context.Background())
	r.subCancel = cancel
	for group, c := range []*cmif.Client{r.prim, r.repl} {
		for i := 0; i < liveSubsPerNode; i++ {
			sub, err := c.Subscribe(ctx, liveDocName,
				cmif.WithSubscribeSchedule(cmif.WithScheduleMetrics(r.schedReg)))
			if err != nil {
				r.close()
				return nil, fmt.Errorf("subscribe: %w", err)
			}
			ls := &liveSub{sub: sub, group: group}
			r.subs = append(r.subs, ls)
			r.subWG.Add(1)
			go r.follow(subCtx, ls)
		}
	}
	for i := 0; i < liveWarmEdits; i++ {
		if _, _, err := r.op(ctx, 0, int64(i), nil); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up edit: %w", err)
		}
	}
	return r, nil
}

// converge waits until every node sees all three alive and has synced,
// then picks the document's primary and the replica its ring names
// first after it.
func (r *liveEdit) converge(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for _, n := range r.nodes {
		if err := n.WaitSynced(ctx); err != nil {
			return fmt.Errorf("node %s never synced: %w", n.Addr(), err)
		}
	}
	for {
		ready := true
		for _, n := range r.nodes {
			alive := 0
			for _, m := range n.Members() {
				if m.State == cluster.StateAlive {
					alive++
				}
			}
			ready = ready && alive == len(r.nodes)
		}
		if ready {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("membership never converged: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
	addrOf := map[string]string{}
	var ids []string
	for _, m := range r.nodes[0].Members() {
		addrOf[m.ID] = m.Addr
		ids = append(ids, m.ID)
	}
	set := cluster.NewRing(ids, cluster.DefaultVirtualNodes).ReplicaSet(cluster.DocKey(liveDocName), 3)
	if len(set) < 2 {
		return fmt.Errorf("ring names %d replicas, want 3", len(set))
	}
	r.primary, r.replica = -1, -1
	for i, n := range r.nodes {
		switch n.Addr() {
		case addrOf[set[0]]:
			r.primary = i
		case addrOf[set[1]]:
			r.replica = i
		}
	}
	if r.primary < 0 || r.replica < 0 {
		return fmt.Errorf("ring members %v do not match the started nodes", set[:2])
	}
	return nil
}

// parOfSeq builds the S6 document shape: arms seq arms under one par,
// leaves split evenly, a few intra-arm sync arcs, durations drawn from
// seed. It returns the document and every leaf's path.
func parOfSeq(seed uint64, leaves, arms, arcsPerMille int) (*cmif.Document, []string, error) {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5e6))
	perArm := leaves / arms
	root := cmif.NewPar().SetName("bench")
	for a := 0; a < arms; a++ {
		arm := cmif.NewSeq().SetName(fmt.Sprintf("arm%03d", a))
		for l := 0; l < perArm; l++ {
			leaf := cmif.NewImm(nil).SetName(fmt.Sprintf("n%06d", l))
			leaf.SetAttr("duration", cmif.Qty(cmif.MS(int64(20+rng.Intn(400)))))
			arm.AddChild(leaf)
		}
		for i := 0; i < perArm*arcsPerMille/1000; i++ {
			// Keep a leaf between the endpoints: an offset against the
			// direct predecessor would contradict seq adjacency.
			src := rng.Intn(perArm - 2)
			dst := src + 2 + rng.Intn(perArm-src-2)
			strict := cmif.Must
			if rng.Intn(2) == 0 {
				strict = cmif.May
			}
			arm.AddArc(cmif.SyncArc{
				Source: fmt.Sprintf("n%06d", src), SrcEnd: cmif.End,
				Dest: fmt.Sprintf("n%06d", dst), DestEnd: cmif.Begin,
				Offset: cmif.MS(int64(rng.Intn(30))), MinDelay: cmif.MS(0),
				MaxDelay: cmif.InfiniteDelay(), Strict: strict,
			})
		}
		root.AddChild(arm)
	}
	doc, err := cmif.NewDocument(root)
	if err != nil {
		return nil, nil, err
	}
	var paths []string
	doc.Root().Walk(func(n *cmif.Node) bool {
		if n.Type.IsLeaf() {
			paths = append(paths, n.PathString())
		}
		return true
	})
	return doc, paths, nil
}

// follow owns one subscription: it applies every push and checks it
// against the edit in flight.
func (r *liveEdit) follow(ctx context.Context, s *liveSub) {
	defer r.subWG.Done()
	for {
		if _, err := s.sub.Next(ctx); err != nil {
			if ctx.Err() == nil {
				r.subErrs.Add(1)
				printErr("subscriber: %v", err)
			}
			return
		}
		r.check(s)
	}
}

func (r *liveEdit) check(s *liveSub) {
	r.mu.Lock()
	t := r.tgt
	r.mu.Unlock()
	if t.done == nil || t.k <= s.seen {
		return
	}
	n, err := s.sub.Document().ResolvePath(t.path)
	if err != nil {
		return
	}
	if v, ok := n.Attrs.Get("duration"); !ok || !v.Equal(t.value) {
		return
	}
	s.seen = t.k
	since := time.Since(t.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tgt.k != t.k {
		return
	}
	r.visible[s.group] = append(r.visible[s.group], since)
	r.tgt.pending--
	if r.tgt.pending == 0 {
		close(r.tgt.done)
	}
}

func (r *liveEdit) workers() int { return 1 }

func (r *liveEdit) op(ctx context.Context, w int, k int64, sp *spanBuf) (time.Duration, int64, error) {
	if k == 0 {
		// A phase starts: the ack and visibility samples are per phase.
		r.acks = r.acks[:0]
		r.mu.Lock()
		r.visible = [2][]time.Duration{}
		r.mu.Unlock()
	}
	r.seq++
	path := r.leaves[int(r.seq)%len(r.leaves)]
	ms := 1000 + r.seq // strictly increasing: never a leaf's current value
	value := cmif.Qty(cmif.MS(ms))
	done := make(chan struct{})
	start := time.Now()
	r.mu.Lock()
	r.tgt = liveTarget{k: r.seq, path: path, value: value, pending: len(r.subs), done: done, start: start}
	r.mu.Unlock()

	root := sp.begin("op", k, -1)
	defer sp.end(root)
	s := sp.begin("cmif.submitedit", k, root)
	_, err := r.prim.SubmitEdit(ctx, liveDocName, cmif.NewEditBatch().SetAttr(path, "duration", value))
	sp.end(s)
	if err != nil {
		return 0, 0, fmt.Errorf("submit edit: %w", err)
	}
	r.acks = append(r.acks, time.Since(start))
	r.recent = append(r.recent, editRec{path: path, ms: ms})
	if len(r.recent) > 512 {
		r.recent = r.recent[len(r.recent)-256:]
	}

	s = sp.begin("wait.visible", k, root)
	timer := time.NewTimer(liveVisibleWait)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		err = fmt.Errorf("edit %d not visible to every subscriber within %v", r.seq, liveVisibleWait)
	case <-ctx.Done():
		err = ctx.Err()
	}
	sp.end(s)
	return time.Since(start), 0, err
}

func (r *liveEdit) wireBytes() int64 { return r.prim.BytesReceived() + r.repl.BytesReceived() }

// finalAudit stops the subscribers and checks that both replicas and
// every subscriber's copy encode byte-equal to the primary's document.
func (r *liveEdit) finalAudit(ctx context.Context) error {
	r.stopSubs()
	if n := r.subErrs.Load(); n > 0 {
		return fmt.Errorf("%w: %d subscriber failures", errAudit, n)
	}
	want, err := encodedDoc(ctx, r.prim)
	if err != nil {
		return err
	}
	for i, n := range r.nodes {
		if i == r.primary {
			continue
		}
		c, err := cmif.Dial(ctx, n.Addr())
		if err != nil {
			return err
		}
		got, err := encodedDoc(ctx, c)
		c.Close()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%w: node %s document differs from the primary's", errAudit, n.Addr())
		}
	}
	for i, s := range r.subs {
		got, err := cmif.Encode(s.sub.Document(), cmif.WithFormat(cmif.FormatBinary))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%w: subscriber %d document differs from the primary's", errAudit, i)
		}
	}
	return nil
}

func encodedDoc(ctx context.Context, c *cmif.Client) ([]byte, error) {
	d, err := c.Document(ctx, liveDocName, cmif.WithBinaryWire())
	if err != nil {
		return nil, err
	}
	return cmif.Encode(d, cmif.WithFormat(cmif.FormatBinary))
}

func (r *liveEdit) stopSubs() {
	if r.subCancel != nil {
		r.subCancel()
	}
	r.subWG.Wait()
}

func (r *liveEdit) extra(p *phase) []namedValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	return []namedValue{
		{"ack_p50_ms", durQuantile(r.acks, 0.50) / 1e3, "ms"},
		{"ack_p99_ms", durQuantile(r.acks, 0.99) / 1e3, "ms"},
		{"visible_primary_p50_ms", durQuantile(r.visible[0], 0.50) / 1e3, "ms"},
		{"visible_replica_p50_ms", durQuantile(r.visible[1], 0.50) / 1e3, "ms"},
	}
}

// liveProbes are transport-level subscriptions, one on the primary and
// one on the replica, that count the event kinds an edit produces.
type liveProbes struct {
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	conns     []*transport.Client
	deltas    atomic.Int64
	snapshots atomic.Int64
	err       atomic.Value
}

func (r *liveEdit) openProbes() (*liveProbes, error) {
	ctx, cancel := context.WithCancel(context.Background())
	pr := &liveProbes{cancel: cancel}
	for _, i := range []int{r.primary, r.replica} {
		c, err := transport.DialContext(ctx, r.nodes[i].Addr())
		if err != nil {
			pr.close()
			return nil, err
		}
		pr.conns = append(pr.conns, c)
		sub, err := c.SubscribeDoc(ctx, liveDocName)
		if err != nil {
			pr.close()
			return nil, err
		}
		pr.wg.Add(1)
		go func() {
			defer pr.wg.Done()
			defer sub.Close()
			for {
				ev, err := sub.Recv(ctx)
				if err != nil {
					if ctx.Err() == nil {
						pr.err.Store(err)
					}
					return
				}
				switch ev.Kind {
				case transport.SubDelta:
					pr.deltas.Add(1)
				case transport.SubSnapshot:
					pr.snapshots.Add(1)
				}
			}
		}()
	}
	return pr, nil
}

func (pr *liveProbes) close() {
	pr.cancel()
	pr.wg.Wait()
	for _, c := range pr.conns {
		c.Close()
	}
}

type liveSnapshot struct {
	regs     []cmif.MetricsSnapshot
	sched    cmif.MetricsSnapshot
	appended int64
}

func (r *liveEdit) snapshot() any {
	s := liveSnapshot{sched: r.schedReg.Snapshot()}
	for i, reg := range r.regs {
		s.regs = append(s.regs, reg.Snapshot())
		s.appended += r.nodes[i].DurableStats().AppendedBytes
	}
	pr, err := r.openProbes()
	if err != nil {
		printErr("event probes not opened: %v", err)
	} else {
		r.probes = pr
	}
	return s
}

func (r *liveEdit) layers(ctx context.Context, before any, p *phase) (map[string]float64, []string) {
	b := before.(liveSnapshot)
	out := map[string]float64{}
	var notes []string
	edits := float64(p.attempted)
	prim := newRegDelta(b.regs[r.primary], r.regs[r.primary])
	repl := newRegDelta(b.regs[r.replica], r.regs[r.replica])
	sch := newRegDelta(b.sched, r.schedReg)

	submits := spansNamed(p.spans, "cmif.submitedit")
	out["cmif.submitedit_us_p50"] = durQuantile(submits, 0.50)
	out["cmif.submitedit_us_p99"] = durQuantile(submits, 0.99)
	r.mu.Lock()
	out["cmif.visible_primary_us_p50"] = durQuantile(r.visible[0], 0.50)
	out["cmif.visible_replica_us_p50"] = durQuantile(r.visible[1], 0.50)
	r.mu.Unlock()

	out["transport.server_submitedit_us_mean"] = prim.histMeanUS(reqKey("submitedit"))
	out["transport.wire_submitedit_us"] = durMean(submits) - out["transport.server_submitedit_us_mean"]
	// Subscriptions open during setup, so the mean covers the whole run.
	var subSum, subCount float64
	for _, d := range []regDelta{prim, repl} {
		h := d.after.Histograms[reqKey("subscribe")]
		subSum += h.Sum
		subCount += float64(h.Count)
	}
	out["transport.server_subscribe_us_mean"] = ratio(subSum, subCount) * 1e6
	// Peer traffic (gossip, replication) is labelled op="other".
	trips := prim.counterPrefix("cmif_requests_total") - prim.counter(`cmif_requests_total{op="other"}`) +
		repl.counterPrefix("cmif_requests_total") - repl.counter(`cmif_requests_total{op="other"}`)
	out["transport.round_trips_per_op"] = ratio(trips, edits)
	// Frames the two servers sent the load generator: responses plus one
	// pushed event per subscriber per edit.
	frames := trips + edits*float64(len(r.subs))
	compressed := prim.counter("cmif_frames_compressed_total") + repl.counter("cmif_frames_compressed_total")
	out["transport.compressed_frame_ratio"] = ratio(compressed, frames)
	saved := prim.counter(`cmif_bytes_saved_total{reason="compress"}`) + repl.counter(`cmif_bytes_saved_total{reason="compress"}`)
	out["transport.compress_saved_ratio"] = ratio(saved, saved+float64(p.wire))
	out["transport.fanout_us_p50"] = histQuantileUS(prim.after, "cmif_delta_fanout_seconds", 0.50)
	var busy float64
	for i, reg := range r.regs {
		busy += newRegDelta(b.regs[i], reg).counterPrefix("cmif_busy_rejections_total")
	}
	out["transport.busy_rejections"] = busy
	if r.probes != nil {
		r.probes.close()
		out["transport.delta_events_per_edit"] = ratio(float64(r.probes.deltas.Load()), edits)
		out["transport.snapshot_events_per_edit"] = ratio(float64(r.probes.snapshots.Load()), edits)
		if err, ok := r.probes.err.Load().(error); ok {
			notes = append(notes, fmt.Sprintf("event probe failed: %v", err))
		}
		r.probes = nil
		notes = append(notes, "transport.*_events_per_edit: events per edit summed over one probe subscription on the primary and one on the replica")
	}

	out["sched.full_us_p50"] = histQuantileUS(sch.after, `cmif_schedule_seconds{kind="full"}`, 0.50)
	out["sched.incremental_us_p50"] = histQuantileUS(sch.after, `cmif_schedule_seconds{kind="incremental"}`, 0.50)
	out["sched.full_passes_per_edit"] = ratio(sch.counter(`cmif_schedule_passes_total{kind="full"}`), edits)
	out["sched.incremental_passes_per_edit"] = ratio(sch.counter(`cmif_schedule_passes_total{kind="incremental"}`), edits)

	out["durable.wal_append_us_p50"] = histQuantileUS(prim.after, "cmif_wal_append_seconds", 0.50)
	out["durable.wal_append_us_p99"] = histQuantileUS(prim.after, "cmif_wal_append_seconds", 0.99)
	var appended int64
	for _, n := range r.nodes {
		appended += n.DurableStats().AppendedBytes
	}
	out["durable.wal_bytes_per_edit"] = ratio(float64(appended-b.appended), edits)
	out["cluster.replicated_batches_per_edit"] = ratio(prim.counter("cmif_cluster_replicated_batches_total"), edits)

	// Ladders over the workload's document and edit records.
	notes = append(notes, docLadders([]*cmif.Document{r.doc}, out)...)
	encs, cores, err := binaryDocs([]*cmif.Document{r.doc})
	if err != nil {
		notes = append(notes, fmt.Sprintf("edit ladder skipped: %v", err))
		return out, notes
	}
	compressLadder(encs, out)
	recs := make([]core.ChangeRecord, 0, len(r.recent))
	for _, e := range r.recent {
		rec, err := edit.RecordSetAttr(e.path, "duration", attr.Quantity(units.MS(e.ms)))
		if err != nil {
			notes = append(notes, fmt.Sprintf("edit ladder: %v", err))
			return out, notes
		}
		recs = append(recs, rec)
	}
	if len(recs) > 0 {
		target := cores[0].Clone()
		var applyErr error
		apply := ladder(50, 100000, ladderMinDur, func(i int) {
			if err := edit.Apply(target, recs[i%len(recs):i%len(recs)+1]); err != nil && applyErr == nil {
				applyErr = err
			}
		})
		out["edit.apply_us"] = durMean(apply)
		if applyErr != nil {
			notes = append(notes, fmt.Sprintf("edit ladder: %v", applyErr))
		}
	}
	// Replicate the frame an edit produces to the replica, under another
	// document name so the measured document is untouched.
	tc, err := transport.DialContext(ctx, r.nodes[r.replica].Addr())
	if err != nil {
		notes = append(notes, fmt.Sprintf("replicate ladder skipped: %v", err))
		return out, notes
	}
	defer tc.Close()
	frame := durable.FramePutDoc("perfbench-ladder", encs[0])
	var replErr error
	repl2 := ladder(20, 2000, ladderMinDur, func(int) {
		if err := tc.Replicate(ctx, frame); err != nil && replErr == nil {
			replErr = err
		}
	})
	out["cluster.replicate_us_p50"] = durQuantile(repl2, 0.50)
	if replErr != nil {
		notes = append(notes, fmt.Sprintf("replicate ladder: %v", replErr))
	}
	notes = append(notes,
		"live-edit: no blocks, chunking or edge; media.*, chunker.*, edge.* and the block metrics read 0",
		"live-edit: transport.server_subscribe_us_mean covers the setup-time subscribes",
		"live-edit: sched.* come from the eight subscribers' plans; *_us_p50 are cumulative over the run",
		"live-edit: durable.wal_append_us_* and transport.fanout_us_p50 are the primary's, cumulative over the run")
	return out, notes
}

func (r *liveEdit) close() {
	if r.probes != nil {
		r.probes.close()
	}
	r.stopSubs()
	for _, s := range r.subs {
		_ = s.sub.Close()
	}
	if r.prim != nil {
		_ = r.prim.Close()
	}
	if r.repl != nil {
		_ = r.repl.Close()
	}
	for _, n := range r.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = n.Shutdown(ctx)
		cancel()
	}
	if err := os.RemoveAll(r.dir); err != nil {
		printErr("remove %s: %v", r.dir, err)
	}
}
