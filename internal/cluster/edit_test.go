package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/transport"
	"repro/internal/units"
)

// primaryOf returns the node the ring names primary for the document.
func primaryOf(t *testing.T, nodes []*Node, name string) *Node {
	t.Helper()
	id := nodes[0].ring().Primary(docKey(name))
	for _, n := range nodes {
		if n.view.SelfID() == id {
			return n
		}
	}
	t.Fatalf("primary %s of %q is not a running node", id, name)
	return nil
}

// docHistory returns a node's journaled history of the document — its
// base put and edit tail, framed as a resync ships them. Equal histories
// mean equal durable versions.
func docHistory(t *testing.T, n *Node, name string) []byte {
	t.Helper()
	frames, _, err := n.log.ResyncChunk("", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := durable.FilterFrames(frames, func(r durable.Record) bool {
		return recordKey(r) == docKey(name)
	})
	if err != nil {
		t.Fatal(err)
	}
	return hist
}

// checkConverged asserts every node serves the document byte-equal to
// the first, with the same durable history and registry generation.
func checkConverged(t *testing.T, nodes []*Node, name string) {
	t.Helper()
	var want, wantHist []byte
	var wantGen uint64
	for i, n := range nodes {
		d, ok := n.reg.GetDoc(name)
		if !ok {
			t.Fatalf("node %s lost %q", n.Addr(), name)
		}
		got, err := codec.EncodeBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		hist := docHistory(t, n, name)
		gen := n.reg.Generation(name)
		if i == 0 {
			want, wantHist, wantGen = got, hist, gen
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("node %s document differs from node %s's", n.Addr(), nodes[0].Addr())
		}
		if !bytes.Equal(hist, wantHist) || gen != wantGen {
			t.Fatalf("node %s at gen %d with a %d-byte history, node %s at gen %d with %d bytes",
				n.Addr(), gen, len(hist), nodes[0].Addr(), wantGen, len(wantHist))
		}
	}
}

// TestReplicaSubscribersGetDeltas: an edit reaches every node as an
// edit — each node's subscriber receives one delta per edit and never a
// snapshot, at the generation the primary returned.
func TestReplicaSubscribersGetDeltas(t *testing.T) {
	nodes := startCluster(t, 3, 3)
	ctx := context.Background()
	d, paths := leafDoc(t, 4, 8)
	c := dialNode(t, nodes[0].Addr())
	if err := c.PutDoc(ctx, "live", d, transport.EncodingBinary); err != nil {
		t.Fatal(err)
	}
	subs := make([]*transport.DocSubscription, len(nodes))
	for i, n := range nodes {
		sub, err := dialNode(t, n.Addr()).SubscribeDoc(ctx, "live")
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}

	rng := rand.New(rand.NewSource(1))
	var gens []uint64
	for i := 0; i < 20; i++ {
		gen, err := c.SubmitEdit(ctx, "live", setDuration(t, paths[rng.Intn(len(paths))], int64(1000+i)))
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		gens = append(gens, gen)
	}
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for i, sub := range subs {
		prev := uint64(0)
		for k, gen := range gens {
			ev, err := sub.Recv(rctx)
			if err != nil {
				t.Fatalf("node %d subscriber: %v", i, err)
			}
			if ev.Kind != transport.SubDelta || ev.FromGen != prev || ev.Gen != gen {
				t.Fatalf("node %d event %d: kind %d %d→%d, want a delta %d→%d", i, k, ev.Kind, ev.FromGen, ev.Gen, prev, gen)
			}
			prev = gen
		}
	}
	checkConverged(t, nodes, "live")
	if g := primaryOf(t, nodes, "live").reg.Generation("live"); g != gens[len(gens)-1] {
		t.Fatalf("primary generation %d, want %d", g, gens[len(gens)-1])
	}
}

// staleCluster starts three nodes holding "live" with a few acknowledged
// edits, then rolls a replica's copy back to the document as first put: a
// node that missed those writes. It returns the nodes, the client, the
// leaf paths, the acknowledged values, the document's primary and the
// stale replica.
func staleCluster(t *testing.T) ([]*Node, *transport.Client, []string, map[string]int64, *Node, *Node) {
	t.Helper()
	nodes := startCluster(t, 3, 3)
	ctx := context.Background()
	d, paths := leafDoc(t, 4, 8)
	orig, err := codec.EncodeBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	c := dialNode(t, nodes[0].Addr())
	if err := c.PutDoc(ctx, "live", d, transport.EncodingBinary); err != nil {
		t.Fatal(err)
	}
	acked := map[string]int64{}
	for i := 0; i < 3; i++ {
		if _, err := c.SubmitEdit(ctx, "live", setDuration(t, paths[i], int64(500+i))); err != nil {
			t.Fatal(err)
		}
		acked[paths[i]] = int64(500 + i)
	}
	primary := primaryOf(t, nodes, "live")
	stale := otherThan(nodes, primary)
	if err := stale.Replicate(durable.FramePutDoc("live", orig)); err != nil {
		t.Fatal(err)
	}
	if g := stale.reg.Generation("live"); g != 0 {
		t.Fatalf("rolled-back node at generation %d", g)
	}
	return nodes, c, paths, acked, primary, stale
}

// otherThan returns the first node that is not n.
func otherThan(nodes []*Node, n *Node) *Node {
	for _, o := range nodes {
		if o != n {
			return o
		}
	}
	return nil
}

// checkAcked asserts every node holds every acknowledged edit.
func checkAcked(t *testing.T, nodes []*Node, acked map[string]int64) {
	t.Helper()
	for _, n := range nodes {
		doc, _ := n.reg.GetDoc("live")
		for path, ms := range acked {
			leaf, err := doc.Root.Resolve(path)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := leaf.Attrs.Get("duration"); !v.Equal(attr.Quantity(units.MS(ms))) {
				t.Fatalf("node %s: acknowledged edit %s=%dms lost (holds %v)", n.Addr(), path, ms, v)
			}
		}
	}
}

// TestStaleReplicaRebased: a replica that missed writes refuses the next
// edit record with the typed stale-base error and changes nothing; the
// primary re-bases the document and all three nodes converge, every
// acknowledged edit included.
func TestStaleReplicaRebased(t *testing.T) {
	nodes, c, paths, acked, primary, replica := staleCluster(t)
	staleHist := docHistory(t, replica, "live")
	records := replica.DurableStats().Records
	// The primary's edits name its version; any base but the replica's
	// own is refused alike.
	next := core.EncodeChangeRecords(setDuration(t, paths[5], 2))
	err := replica.Replicate(durable.FrameEditDoc("live", durable.Version{}, next))
	if !errors.Is(err, durable.ErrStaleBase) {
		t.Fatalf("stale edit: %v, want ErrStaleBase", err)
	}
	if !bytes.Equal(docHistory(t, replica, "live"), staleHist) || replica.reg.Generation("live") != 0 ||
		replica.DurableStats().Records != records {
		t.Fatal("refused edit changed the replica")
	}

	ctx := context.Background()
	if _, err := c.SubmitEdit(ctx, "live", setDuration(t, paths[3], 700)); err != nil {
		t.Fatalf("edit over a stale replica: %v", err)
	}
	acked[paths[3]] = 700
	if primary.mRebases.Value() != 1 || primary.mCatchUps.Value() != 0 {
		t.Fatalf("primary re-based %d times and caught up %d, want one re-base",
			primary.mRebases.Value(), primary.mCatchUps.Value())
	}
	checkConverged(t, nodes, "live")
	checkAcked(t, nodes, acked)

	// Edits flow as edits again after the re-base.
	if _, err := c.SubmitEdit(ctx, "live", setDuration(t, paths[4], 800)); err != nil {
		t.Fatal(err)
	}
	if primary.mRebases.Value() != 1 {
		t.Fatal("a converged cluster re-based again")
	}
	checkConverged(t, nodes, "live")
}

// TestEditDuringResyncAfterRePut: a node holds a document that has had
// twenty edits when it goes down; the document is put afresh and edited
// twice; the node comes back with its old copy, and an edit arrives
// before its resync has reached the document. The old copy has had more
// edits, but the put started a new epoch, so its generation is the lower
// one. As a replica the node refuses the edit and the primary re-bases it
// onto the current copy; as the primary (the ring may promote a
// rejoining node) its replicas refuse its edit from their higher
// generation, so it takes a replica's copy, re-applies the edit and
// re-bases. Either way no acknowledged write is lost and all three nodes
// end with the same history. The rejoin is emulated in place — the node's
// old history restored, its resync window reopened, then the resync run —
// so the test picks the stale node's role and the moment the edit lands.
func TestEditDuringResyncAfterRePut(t *testing.T) {
	for _, stalePrimary := range []bool{false, true} {
		name := "stale replica"
		if stalePrimary {
			name = "stale primary"
		}
		t.Run(name, func(t *testing.T) {
			nodes := startCluster(t, 3, 3)
			ctx := context.Background()
			const perArm = 8
			d, paths := leafDoc(t, 4, perArm)
			c := dialNode(t, nodes[0].Addr())
			if err := c.PutDoc(ctx, "live", d, transport.EncodingBinary); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if _, err := c.SubmitEdit(ctx, "live", setDuration(t, paths[i], int64(900+i))); err != nil {
					t.Fatal(err)
				}
			}
			primary := primaryOf(t, nodes, "live")
			stale := otherThan(nodes, primary)
			if stalePrimary {
				stale = primary
			}
			old := docHistory(t, stale, "live")
			oldGen := stale.reg.Generation("live")

			// While the node is away: a fresh put and two edits. Every
			// leaf is back at leafDoc's initial duration but two.
			if err := c.PutDoc(ctx, "live", d, transport.EncodingBinary); err != nil {
				t.Fatal(err)
			}
			acked := map[string]int64{}
			for i, p := range paths {
				acked[p] = int64(20 + i%perArm)
			}
			for i := 0; i < 2; i++ {
				if _, err := c.SubmitEdit(ctx, "live", setDuration(t, paths[i], int64(i+1))); err != nil {
					t.Fatal(err)
				}
				acked[paths[i]] = int64(i + 1)
			}

			// It comes back with its old copy, resyncing.
			if err := stale.Replicate(old); err != nil {
				t.Fatal(err)
			}
			if g, cur := stale.reg.Generation("live"), otherThan(nodes, stale).reg.Generation("live"); g != oldGen || g >= cur {
				t.Fatalf("stale copy at generation %d (was %d), current at %d: want the stale one lower", g, oldGen, cur)
			}
			stale.applyMu.Lock()
			stale.touched = map[string]bool{}
			stale.applyMu.Unlock()

			if _, err := c.SubmitEdit(ctx, "live", setDuration(t, paths[2], 3)); err != nil {
				t.Fatalf("edit during resync: %v", err)
			}
			acked[paths[2]] = 3
			if !stale.resyncFrom(otherThan(nodes, stale).Addr()) {
				t.Fatal("resync failed")
			}
			stale.applyMu.Lock()
			stale.touched = nil
			stale.applyMu.Unlock()

			checkConverged(t, nodes, "live")
			checkAcked(t, nodes, acked)
			if got := primary.mCatchUps.Value(); got != map[bool]int64{false: 0, true: 1}[stalePrimary] {
				t.Fatalf("primary caught up %d times", got)
			}
			if primary.mRebases.Value() != 1 {
				t.Fatalf("primary re-based %d times, want once", primary.mRebases.Value())
			}

			// Edits flow as edits again.
			if _, err := c.SubmitEdit(ctx, "live", setDuration(t, paths[3], 4)); err != nil {
				t.Fatal(err)
			}
			acked[paths[3]] = 4
			if primary.mRebases.Value() != 1 {
				t.Fatal("a converged cluster re-based again")
			}
			checkConverged(t, nodes, "live")
			checkAcked(t, nodes, acked)
		})
	}
}

// TestTailRebaseKeepsReplicasEqual: enough edits to outgrow the base put
// several times over make every node re-base at the same record, with
// no snapshot pushed to any subscriber, and the nodes stay byte-equal.
func TestTailRebaseKeepsReplicasEqual(t *testing.T) {
	nodes := startCluster(t, 3, 3)
	ctx := context.Background()
	d, paths := leafDoc(t, 2, 3)
	c := dialNode(t, nodes[0].Addr())
	if err := c.PutDoc(ctx, "small", d, transport.EncodingBinary); err != nil {
		t.Fatal(err)
	}
	subs := make([]*transport.DocSubscription, len(nodes))
	records := make([]int64, len(nodes))
	for i, n := range nodes {
		sub, err := dialNode(t, n.Addr()).SubscribeDoc(ctx, "small")
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
		records[i] = n.DurableStats().Records
	}
	const edits = 60
	for i := 0; i < edits; i++ {
		if _, err := c.SubmitEdit(ctx, "small", setDuration(t, paths[i%len(paths)], int64(i))); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}
	for i, n := range nodes {
		if extra := n.DurableStats().Records - records[i] - edits; extra < 2 {
			t.Fatalf("node %s journaled %d re-base puts over %d edits, want several", n.Addr(), extra, edits)
		}
	}
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for i, sub := range subs {
		for k := 0; k < edits; k++ {
			ev, err := sub.Recv(rctx)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind != transport.SubDelta {
				t.Fatalf("node %d event %d: kind %d, want only deltas", i, k, ev.Kind)
			}
		}
	}
	checkConverged(t, nodes, "small")
}

// TestRejoinWhileEditsStream: a replica killed mid-stream misses a fresh
// put of the document and the edits after it, then rejoins — under a new
// address, so the ring may make it the primary — while edits keep
// arriving: its resync races live edit records, the re-bases its stale
// copy provokes, and, when it is promoted while its peers' views still
// leave it out, the catch-up of its own stale copy. It ends byte-equal
// with every acknowledged write present, although its old copy has had
// more edits than the current one.
func TestRejoinWhileEditsStream(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	var nodes []*Node
	var peers []string
	for i := 0; i < 3; i++ {
		n := startNode(t, dirs[i], append([]string(nil), peers...), 3)
		nodes = append(nodes, n)
		peers = append(peers, n.Addr())
	}
	waitAlive(t, nodes, 3)
	ctx := context.Background()
	const perArm = 16
	d, paths := leafDoc(t, 4, perArm)
	primary := primaryOf(t, nodes, "live")
	c := dialNode(t, primary.Addr())
	if err := c.PutDoc(ctx, "live", d, transport.EncodingBinary); err != nil {
		t.Fatal(err)
	}
	victim, survivor := -1, -1
	for i, n := range nodes {
		switch {
		case n == primary:
		case victim < 0:
			victim = i
		default:
			survivor = i
		}
	}

	// The writer edits seeded leaves until told to stop, remembering the
	// last acknowledged value of each. Holding pause stops it between
	// edits.
	var (
		mu      sync.Mutex
		pause   sync.Mutex
		acked   = map[string]int64{}
		editErr error
		seq     int64
	)
	stop := make(chan struct{})
	done := make(chan struct{})
	submit := func(path string) error {
		mu.Lock()
		seq++
		ms := 1000 + seq
		mu.Unlock()
		if _, err := c.SubmitEdit(ctx, "live", setDuration(t, path, ms)); err != nil {
			return err
		}
		mu.Lock()
		acked[path] = ms
		mu.Unlock()
		return nil
	}
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			pause.Lock()
			err := submit(paths[rng.Intn(len(paths))])
			pause.Unlock()
			if err != nil {
				mu.Lock()
				editErr = err
				mu.Unlock()
				return
			}
		}
	}()
	waitEdits := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		mu.Lock()
		target := seq + n
		mu.Unlock()
		for {
			mu.Lock()
			s, err := seq, editErr
			mu.Unlock()
			if err != nil {
				t.Fatalf("writer: %v", err)
			}
			if s >= target {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("writer stalled")
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitEdits(60)
	nodes[victim].Kill()
	waitEdits(10)
	// A fresh put while the victim is away starts a new epoch and resets
	// every leaf to leafDoc's initial duration.
	pause.Lock()
	if err := c.PutDoc(ctx, "live", d, transport.EncodingBinary); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for i, p := range paths {
		acked[p] = int64(20 + i%perArm)
	}
	mu.Unlock()
	pause.Unlock()
	waitEdits(10)
	rejoined := startNode(t, dirs[victim], []string{primary.Addr(), nodes[survivor].Addr()}, 3)
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := rejoined.WaitSynced(wctx); err != nil {
		t.Fatalf("rejoined node never synced: %v", err)
	}
	live := []*Node{primary, nodes[survivor], rejoined}
	waitAlive(t, live, 3)
	// Edits after everyone sees everyone reach the rejoined node live.
	waitEdits(40)
	close(stop)
	<-done
	if editErr != nil {
		t.Fatalf("writer: %v", editErr)
	}

	checkConverged(t, live, "live")
	var rebases, catchUps int64
	for _, n := range live {
		rebases += n.mRebases.Value()
		catchUps += n.mCatchUps.Value()
	}
	t.Logf("%d edits acknowledged, %d re-bases, %d primary catch-ups", seq, rebases, catchUps)
	doc, _ := rejoined.reg.GetDoc("live")
	for path, ms := range acked {
		n, err := doc.Root.Resolve(path)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := n.Attrs.Get("duration"); !v.Equal(attr.Quantity(units.MS(ms))) {
			t.Fatalf("acknowledged edit %s=%dms lost (holds %v)", path, ms, v)
		}
	}
}
