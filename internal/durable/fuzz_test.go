package durable

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/media"
)

// validWALBytes frames a realistic record sequence: a registered block
// put, a name re-point, a descriptor upsert and a delete.
func validWALBytes(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	write := func(op byte, fields ...[]byte) {
		buf.Write(frameRecord(encodeRecord(op, fields...)))
	}
	b := media.CaptureText("fuzz-seed.txt", "seed payload", "en")
	desc, err := encodeDescriptor(b.Descriptor)
	if err != nil {
		tb.Fatal(err)
	}
	write(recPutBlk, []byte(b.ID), []byte(b.Name), []byte(b.Medium.String()), desc, b.Payload, []byte{1})
	write(recName, []byte("alias.txt"), []byte(b.ID))
	var d attr.List
	d.Set("format", attr.ID("utf8"))
	dd, err := encodeDescriptor(d)
	if err != nil {
		tb.Fatal(err)
	}
	write(recPutDesc, []byte("desc-1"), dd)
	write(recDelDesc, []byte("desc-1"))
	write(recDelBlk, []byte(b.ID))
	return buf.Bytes()
}

// validEditWALBytes frames a document history: a put, two edits
// chained on its version, and a re-base put at a nonzero generation.
func validEditWALBytes(tb testing.TB) []byte {
	tb.Helper()
	doc := encodeDoc(tb, testDoc(tb, "fuzz"))
	v := baseVersion(doc)
	out := FramePutDoc("doc", doc)
	for _, ms := range []int64{5, 6} {
		recs := core.EncodeChangeRecords(setCap(tb, ms))
		out = append(out, FrameEditDoc("doc", v, recs)...)
		v = v.next(recs)
	}
	return append(out, encodeFrame(recPutDoc, putFields("doc", doc, 2)...)...)
}

// FuzzWALReplay feeds arbitrary bytes to the replayer, in both the
// torn-tolerant (WAL tail) and strict (snapshot) modes: it must never
// panic, never allocate the corrupt length a frame header claims, and
// only ever return clean errors.
func FuzzWALReplay(f *testing.F) {
	valid := validWALBytes(f)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                 // torn tail
	f.Add(valid[:frameHeaderSize-2])            // torn header
	f.Add(append([]byte{0, 0, 0, 0}, valid...)) // zero-length frame
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	huge := append([]byte(nil), valid...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f // impossible length
	f.Add(huge)
	f.Add([]byte("not a wal at all, just prose pretending"))
	edits := validEditWALBytes(f)
	f.Add(edits)
	f.Add(edits[:len(edits)-3])
	stale := append([]byte(nil), edits...)
	stale[bytes.Index(stale, []byte{recEditDoc})+6] ^= 1 // inside the first edit's base version
	f.Add(stale)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tornOK := range []bool{true, false} {
			st := newState()
			end, err := replayStream(bytes.NewReader(data), "fuzz", st, tornOK)
			if end < 0 || end > int64(len(data)) {
				t.Fatalf("replay end %d outside input of %d bytes", end, len(data))
			}
			if err != nil && !errors.Is(err, ErrCorrupt) && err != io.EOF {
				// Any failure must be a typed corruption report; raw IO
				// errors cannot come from a bytes.Reader.
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("replay returned untyped error %T: %v", err, err)
				}
			}
			// Whatever replayed must at least be internally consistent.
			if verr := st.Store.VerifyAll(); verr != nil {
				t.Fatalf("replay accepted a corrupt block: %v", verr)
			}
		}
	})
}

// FuzzAppendFrames feeds arbitrary batches to a replica's entry point,
// over a log that already holds a document with an edit tail, a block
// and a descriptor. It must never panic or allocate without bound; a
// batch it refuses must append nothing and leave the state as it was;
// and a batch it accepts must recover from the directory exactly — the
// validate-before-append guarantee that keeps a hostile primary from
// bricking a replica.
func FuzzAppendFrames(f *testing.F) {
	doc := encodeDoc(f, testDoc(f, "fuzz"))
	v := baseVersion(doc)
	recs := core.EncodeChangeRecords(setCap(f, 5))
	blk := media.CaptureText("fuzz.txt", "fuzz body", "en")
	bf, err := FramePutBlock(blk)
	if err != nil {
		f.Fatal(err)
	}
	edit1 := FrameEditDoc("doc", v.next(recs), core.EncodeChangeRecords(setCap(f, 6)))
	f.Add([]byte{})
	f.Add(edit1)
	f.Add(FrameEditDoc("doc", v, recs)) // stale: the log is already past v
	f.Add(append(append([]byte(nil), edit1...), FrameDelDoc("doc")...))
	f.Add(append(FramePutDoc("doc", doc), FrameEditDoc("doc", v, recs)...))
	f.Add(append(FramePutDoc("other", doc), bf...))
	f.Add(validWALBytes(f))
	f.Add(validEditWALBytes(f))
	f.Add(FramePutDoc("doc", []byte("garbage")))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		l, st, err := Open(dir, Options{Sync: SyncNever, SnapshotBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		seed := append(append(FramePutDoc("doc", doc), FrameEditDoc("doc", v, recs)...), bf...)
		if _, err := l.AppendFrames(seed); err != nil {
			t.Fatal(err)
		}
		before, records := fuzzStateKey(t, st), l.Stats().Records

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		_, err = l.AppendFrames(data)
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - alloc; grew > 64<<20+64*uint64(len(data)) {
			t.Fatalf("a %d-byte batch allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if l.Stats().Records != records {
				t.Fatalf("refused batch appended %d records", l.Stats().Records-records)
			}
			if after := fuzzStateKey(t, st); after != before {
				t.Fatalf("refused batch changed the state:\n%s\n%s", before, after)
			}
			return
		}
		live := fuzzStateKey(t, st)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("accepted batch does not recover: %v", err)
		}
		if rec := fuzzStateKey(t, got); rec != live {
			t.Fatalf("recovered state differs from the live one:\n%s\n%s", live, rec)
		}
	})
}

// fuzzStateKey renders a state for equality checks: every document's
// bytes, version and generation, plus block, name and descriptor counts.
func fuzzStateKey(t *testing.T, st *State) string {
	t.Helper()
	names := make([]string, 0, len(st.Docs))
	for name := range st.Docs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		dl := st.docs[name]
		fmt.Fprintf(&b, "%q %x %x %d\n", name, sha256.Sum256(encodeDoc(t, st.Docs[name])), dl.version, st.Generation(name))
	}
	fmt.Fprintf(&b, "blocks %d names %d descs %d", st.Store.Len(), len(st.Store.Names()), len(st.DB.IDs()))
	return b.String()
}
