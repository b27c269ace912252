package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/transport"
	"repro/internal/units"
)

// leafDoc builds a par of arms seq arms holding perArm leaves each, every
// leaf with a duration — the live-edit document shape. It returns the
// document and the leaves' paths.
func leafDoc(t testing.TB, arms, perArm int) (*core.Document, []string) {
	t.Helper()
	root := core.NewPar().SetName("doc")
	var paths []string
	for a := 0; a < arms; a++ {
		arm := core.NewSeq().SetName(fmt.Sprintf("arm%03d", a))
		for l := 0; l < perArm; l++ {
			name := fmt.Sprintf("n%05d", l)
			arm.Add(core.NewImm(nil).SetName(name).SetAttr("duration", attr.Quantity(units.MS(int64(20+l)))))
			paths = append(paths, fmt.Sprintf("/arm%03d/%s", a, name))
		}
		root.Add(arm)
	}
	d, err := core.NewDocument(root)
	if err != nil {
		t.Fatal(err)
	}
	return d, paths
}

func setDuration(t testing.TB, path string, ms int64) []core.ChangeRecord {
	t.Helper()
	rec, err := edit.RecordSetAttr(path, "duration", attr.Quantity(units.MS(ms)))
	if err != nil {
		t.Fatal(err)
	}
	return []core.ChangeRecord{rec}
}

// BenchmarkReplicatedEdit times one single-leaf SetAttr through the
// write path of a three-node cluster at R=3 — primary registry, WAL
// append, synchronous replication to both replicas and their applies —
// on a 2000-leaf par-of-seq document. Allocation figures cover all three
// in-process nodes.
func BenchmarkReplicatedEdit(b *testing.B) {
	var nodes []*Node
	var peers []string
	for i := 0; i < 3; i++ {
		n, err := Start(Config{
			Addr:           "127.0.0.1:0",
			DataDir:        b.TempDir(),
			Peers:          append([]string(nil), peers...),
			Replication:    3,
			GossipInterval: 20 * time.Millisecond,
			PeerTimeout:    5 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(n.Kill)
		nodes = append(nodes, n)
		peers = append(peers, n.Addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range nodes {
		if err := n.WaitSynced(ctx); err != nil {
			b.Fatal(err)
		}
		for len(n.view.Alive()) < len(nodes) {
			if ctx.Err() != nil {
				b.Fatal("membership never converged")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	primary := nodes[0]
	for _, n := range nodes {
		if n.view.SelfID() == n.ring().Primary(docKey("live")) {
			primary = n
		}
	}
	c, err := transport.Dial(primary.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	d, paths := leafDoc(b, 40, 50)
	if err := c.PutDoc(ctx, "live", d, transport.EncodingBinary); err != nil {
		b.Fatal(err)
	}
	batches := make([][]core.ChangeRecord, len(paths))
	for i, p := range paths {
		batches[i] = setDuration(b, p, int64(1000+i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SubmitEdit(context.Background(), "live", batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}
