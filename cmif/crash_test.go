package cmif_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/cmif"
)

// The server-level crash harness: the child process is a durable cmifd
// stand-in (cmif.Serve with WithDataDir and SyncAlways); the parent
// ingests blocks and then edits a document over the real wire protocol,
// records which writes the server acknowledged, SIGKILLs it, and verifies
// the data directory recovers every acknowledged block and edit.

const crashServeEnvVar = "CMIF_CRASH_SERVER_DIR"

// TestCrashChildServe is the child body, not a real test: a durable
// server that prints its bound address and serves until killed.
func TestCrashChildServe(t *testing.T) {
	dir := os.Getenv(crashServeEnvVar)
	if dir == "" {
		t.Skip("crash-harness child body; driven by TestCrashRecoveryServer")
	}
	err := cmif.Serve(context.Background(), "127.0.0.1:0",
		func(bound string, s *cmif.Server) {
			fmt.Printf("ADDR %s\n", bound)
		},
		cmif.WithDataDir(dir),
		cmif.WithSyncPolicy(cmif.SyncAlways),
	)
	if err != nil {
		t.Fatalf("child serve: %v", err)
	}
}

func TestCrashRecoveryServer(t *testing.T) {
	if os.Getenv(crashServeEnvVar) != "" {
		t.Skip("running inside the crash child")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChildServe$", "-test.v")
	cmd.Env = append(os.Environ(), crashServeEnvVar+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The child prints "ADDR host:port" once listening.
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("child never reported its address")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := cmif.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Ingest until enough puts are acknowledged, then kill mid-stream.
	// Every acknowledged put carries a durability promise: the server
	// fsynced it (SyncAlways) before answering.
	acked := make(map[string]string)
	for i := 0; len(acked) < 40; i++ {
		b := cmif.CaptureText(fmt.Sprintf("wire-crash-%04d.txt", i),
			strings.Repeat("over the wire ", 16)+fmt.Sprint(i), "en")
		id, err := c.PutBlock(ctx, b)
		if err != nil {
			t.Fatalf("put %d failed: %v", i, err)
		}
		acked[b.Name] = id
	}
	// Then a document and a stream of edits to it: each acknowledged
	// edit is journaled as its change records, and recovery must replay
	// them onto the document.
	if err := c.Put(ctx, "show", buildDoc(t)); err != nil {
		t.Fatal(err)
	}
	var lastEdit cmif.Value
	for i := 0; i < 25; i++ {
		v := cmif.Qty(cmif.MS(int64(100 + i)))
		if _, err := c.SubmitEdit(ctx, "show", cmif.NewEditBatch().SetAttr("/caption", "duration", v)); err != nil {
			t.Fatalf("edit %d failed: %v", i, err)
		}
		lastEdit = v
	}
	checkEdit := func(d *cmif.Document) {
		t.Helper()
		if got, ok := d.FindByName("caption").Attrs.Get("duration"); !ok || !got.Equal(lastEdit) {
			t.Fatalf("caption duration %v, want the last acknowledged edit's %v", got, lastEdit)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	store, docs, err := cmif.LoadDataDir(dir)
	if err != nil {
		t.Fatalf("recovery after SIGKILL failed: %v", err)
	}
	if docs["show"] == nil {
		t.Fatal("acknowledged document lost by the crash")
	}
	checkEdit(docs["show"])
	for name, id := range acked {
		got, ok := store.Resolve(name)
		if !ok {
			t.Fatalf("acknowledged block %q lost by the crash", name)
		}
		if got != id {
			t.Fatalf("block %q recovered with wrong content: %.12s != %.12s", name, got, id)
		}
	}
	if err := store.VerifyAll(); err != nil {
		t.Fatalf("recovered store fails verification: %v", err)
	}

	// Restart the server on the same directory: the corpus must be
	// served again, exactly — the "killed daemon recovers on restart"
	// acceptance criterion.
	srv := cmif.NewServer(cmif.WithDataDir(dir))
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("restart on recovered dir: %v", err)
	}
	defer srv.Close()
	c2, err := cmif.Dial(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	served, err := c2.Document(ctx, "show")
	if err != nil {
		t.Fatalf("restarted server cannot serve the edited document: %v", err)
	}
	checkEdit(served)
	for name, id := range acked {
		blk, err := c2.Block(ctx, name)
		if err != nil {
			t.Fatalf("restarted server cannot serve %q: %v", name, err)
		}
		if blk.ID != id {
			t.Fatalf("restarted server serves wrong content for %q", name)
		}
	}
}
