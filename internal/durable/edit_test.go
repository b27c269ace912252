package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/edit"
	"repro/internal/units"
)

// setCap builds a one-record batch setting the caption's duration.
func setCap(t testing.TB, ms int64) []core.ChangeRecord {
	t.Helper()
	rec, err := edit.RecordSetAttr("/cap", "duration", attr.Quantity(units.MS(ms)))
	if err != nil {
		t.Fatal(err)
	}
	return []core.ChangeRecord{rec}
}

// docVersion reads a document's current version from the log's state.
func docVersion(l *Log, name string) Version {
	l.mu.Lock()
	defer l.mu.Unlock()
	if dl, ok := l.st.docs[name]; ok {
		return dl.version
	}
	return Version{}
}

func encodeDoc(t testing.TB, d *core.Document) []byte {
	t.Helper()
	data, err := codec.EncodeBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// editLog opens a log holding one document "news" with n edits in its
// tail.
func editLog(t *testing.T, dir string, n int) (*Log, *State) {
	t.Helper()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever, SnapshotBytes: -1})
	if err := l.PutDoc("news", testDoc(t, "news")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.EditDoc("news", setCap(t, int64(100+i))); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}
	return l, st
}

// checkDoc asserts a recovered state holds "news" exactly as the live
// log does: same bytes, same version, same generation.
func checkDoc(t *testing.T, got *State, wantBytes []byte, wantV Version, wantGen uint64) {
	t.Helper()
	d, ok := got.Docs["news"]
	if !ok {
		t.Fatal("document lost")
	}
	if !bytes.Equal(encodeDoc(t, d), wantBytes) {
		t.Fatal("recovered document differs from the live one")
	}
	if v := got.docs["news"].version; v != wantV {
		t.Fatalf("recovered version %x, want %x", v[:4], wantV[:4])
	}
	if g := got.Generation("news"); g != wantGen {
		t.Fatalf("recovered generation %d, want %d", g, wantGen)
	}
}

// TestEditTailRecovers: a put plus an edit tail recovers to the live
// document, version and generation, and the edits cost their records,
// not copies of the document.
func TestEditTailRecovers(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever})
	if err := l.PutDoc("news", testDoc(t, "news")); err != nil {
		t.Fatal(err)
	}
	afterPut := l.Stats().AppendedBytes
	for i := 0; i < 5; i++ {
		if _, err := l.EditDoc("news", setCap(t, int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	if perEdit := (l.Stats().AppendedBytes - afterPut) / 5; perEdit > 200 {
		t.Fatalf("an edit appended %d bytes, want its records only", perEdit)
	}
	want := encodeDoc(t, st.Docs["news"])
	wantV := docVersion(l, "news")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkDoc(t, got, want, wantV, 2*5) // two generations per one-change batch
}

// TestSnapshotMidTailRecovers: a snapshot taken between edits renders
// the document as its base put plus edit tail, and recovery from it (and
// the WAL after it) lands on the same document and version.
func TestSnapshotMidTailRecovers(t *testing.T) {
	dir := t.TempDir()
	l, st := editLog(t, dir, 3)
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if ops := snapshotOps(t, newestSnapshot(t, dir)); ops[recEditDoc] != 3 || ops[recPutDoc] != 1 {
		t.Fatalf("snapshot ops %v, want one put and three edits", ops)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.EditDoc("news", setCap(t, int64(200+i))); err != nil {
			t.Fatal(err)
		}
	}
	want := encodeDoc(t, st.Docs["news"])
	wantV := docVersion(l, "news")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkDoc(t, got, want, wantV, 2*5) // two generations per one-change batch
}

// TestTornEditRecordTruncated: a crash mid-append of an edit record
// leaves a torn tail that recovery truncates, landing on the previous
// edit's document and version.
func TestTornEditRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	l, st := editLog(t, dir, 2)
	want := encodeDoc(t, st.Docs["news"])
	wantV := docVersion(l, "news")
	if _, err := l.EditDoc("news", setCap(t, 999)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, walName(l.Stats().ActiveSegment))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	l2, got, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("torn edit record not tolerated: %v", err)
	}
	defer l2.Close()
	checkDoc(t, got, want, wantV, 2*2)
}

// TestEditVersionMismatchIsCorrupt: an edit record whose base is not the
// document's version, or whose records do not apply, fails recovery as
// corruption rather than replaying onto the wrong document.
func TestEditVersionMismatchIsCorrupt(t *testing.T) {
	doc := encodeDoc(t, testDoc(t, "news"))
	recs := core.EncodeChangeRecords(setCap(t, 5))
	badPath, err := edit.RecordSetAttr("/nowhere", "duration", attr.Quantity(units.MS(5)))
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string][]byte{
		"stale base":    FrameEditDoc("news", Version{1}, recs),
		"unknown doc":   FrameEditDoc("other", baseVersion(doc), recs),
		"inapplicable":  FrameEditDoc("news", baseVersion(doc), core.EncodeChangeRecords([]core.ChangeRecord{badPath})),
		"garbage recs":  FrameEditDoc("news", baseVersion(doc), []byte{1, 9, 9}),
		"short version": encodeFrame(recEditDoc, []byte("news"), []byte{1, 2}, recs),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			wal := append(FramePutDoc("news", doc), edit...)
			// A good record after the bad one: the bad one is not a torn
			// tail, so it must not be silently dropped.
			wal = append(wal, FrameDelDoc("news")...)
			if err := os.WriteFile(filepath.Join(dir, walName(1)), wal, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestAppendFramesEditsAtomically: a replica refuses an edit on a stale
// base with ErrStaleBase, and a batch whose later edit fails rolls back
// the edits before it — nothing appended, document and version as they
// were.
func TestAppendFramesEditsAtomically(t *testing.T) {
	l, st, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	doc := encodeDoc(t, testDoc(t, "news"))
	if _, err := l.AppendFrames(FramePutDoc("news", doc)); err != nil {
		t.Fatal(err)
	}
	v0 := docVersion(l, "news")
	records := l.Stats().Records

	recs := core.EncodeChangeRecords(setCap(t, 7))
	if _, err := l.AppendFrames(FrameEditDoc("news", Version{9}, recs)); !errors.Is(err, ErrStaleBase) {
		t.Fatalf("stale edit: %v, want ErrStaleBase", err)
	}
	badPath, err := edit.RecordSetAttr("/nowhere", "duration", attr.Quantity(units.MS(5)))
	if err != nil {
		t.Fatal(err)
	}
	batch := append(FrameEditDoc("news", v0, recs),
		FrameEditDoc("news", v0.next(recs), core.EncodeChangeRecords([]core.ChangeRecord{badPath}))...)
	if _, err := l.AppendFrames(batch); err == nil {
		t.Fatal("batch with an inapplicable edit accepted")
	}
	if v := docVersion(l, "news"); v != v0 || l.Stats().Records != records {
		t.Fatal("rejected batches changed the version or appended")
	}
	if !bytes.Equal(encodeDoc(t, st.Docs["news"]), doc) {
		t.Fatal("rejected batch left its first edit applied")
	}

	// The good edit alone applies and is reported as an edit.
	changes, err := l.AppendFrames(FrameEditDoc("news", v0, recs))
	if err != nil {
		t.Fatal(err)
	}
	// Generation 2: one for the batch, one for its change.
	if len(changes) != 1 || len(changes[0].Edits) != 1 || changes[0].Gen != 2 {
		t.Fatalf("changes = %+v, want one edit at generation 2", changes)
	}
}

// TestResyncShipsTails: resync renders a document as its put plus edit
// tail; the target lands on the source's version, and a second pass
// appends nothing.
func TestResyncShipsTails(t *testing.T) {
	src, srcSt := editLog(t, t.TempDir(), 4)
	defer src.Close()
	dst, dstSt, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	shipAll(t, src, dst, 64)
	compareStates(t, dstSt, srcSt)
	sv := docVersion(src, "news")
	if dv := docVersion(dst, "news"); dv != sv {
		t.Fatal("resync landed on another version")
	}
	records := dst.Stats().Records
	shipAll(t, src, dst, 64)
	if n := dst.Stats().Records - records; n != 0 {
		t.Fatalf("re-sending a document at the held version appended %d records", n)
	}
}

// TestTailRebase: once the edit tail outgrows the base put, the log
// re-bases the document; a replica fed the primary's edit records
// re-bases at the same record onto the same version, and both recover.
func TestTailRebase(t *testing.T) {
	dir, replDir := t.TempDir(), t.TempDir()
	l, st := mustOpen(t, dir, Options{Sync: SyncNever})
	repl, replSt, err := Open(replDir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.PutDoc("news", testDoc(t, "news")); err != nil {
		t.Fatal(err)
	}
	if _, err := repl.AppendFrames(FramePutDoc("news", encodeDoc(t, st.Docs["news"]))); err != nil {
		t.Fatal(err)
	}
	base := len(st.docs["news"].base)
	rebased := false
	for i := 0; i < 4*base; i++ {
		frame, err := l.EditDoc("news", setCap(t, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := repl.AppendFrames(frame); err != nil {
			t.Fatalf("replica edit %d: %v", i, err)
		}
		dl := st.docs["news"]
		if dl.tailBytes > len(dl.base) {
			t.Fatalf("edit %d: tail of %d bytes over a %d-byte base", i, dl.tailBytes, len(dl.base))
		}
		rebased = rebased || dl.gen > 0
		pv := docVersion(l, "news")
		if rv := docVersion(repl, "news"); rv != pv {
			t.Fatalf("edit %d: replica at another version", i)
		}
	}
	if !rebased {
		t.Fatal("tail never re-based")
	}
	want := encodeDoc(t, st.Docs["news"])
	wantV := docVersion(l, "news")
	wantGen := st.Generation("news")
	if replSt.Generation("news") != wantGen {
		t.Fatal("replica generation differs")
	}
	for _, lg := range []*Log{l, repl} {
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []string{dir, replDir} {
		got, err := Load(d)
		if err != nil {
			t.Fatal(err)
		}
		checkDoc(t, got, want, wantV, wantGen)
	}
}
