package durable

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/edit"
)

// Document histories. A document is journaled as one full put followed
// by the edit batches applied since (recEditDoc records), never as a
// re-encoded whole per edit. Its version is a pure function of that
// history — v0 = H(put bytes), v(n+1) = H(v(n) ‖ records), H a truncated
// SHA-256 — so live appends, recovery, snapshots and resync all agree on
// it without storing it, and an edit record names the version it
// applies to. Once a document's edit tail outgrows its base put, the log
// re-bases it: it journals the current document as a fresh put, keeping
// recovery and snapshots bounded by twice the document's size. The
// trigger is a function of the history alone, so every replica holding
// the same version re-bases at the same record, onto the same bytes.

// Version identifies a document's durable state: the hash chain over its
// last full put and every edit batch journaled after it.
type Version [16]byte

// ErrStaleBase reports an edit batch whose base version is not the
// document's current version (or whose document the log does not hold):
// the sender and this log have diverged, and nothing was applied. A
// cluster primary answers it by re-basing the document. Replayed from a
// WAL, the same mismatch is corruption (ErrCorrupt).
var ErrStaleBase = errors.New("durable: stale base version")

func baseVersion(doc []byte) Version {
	sum := sha256.Sum256(doc)
	return Version(sum[:16])
}

// next chains one journaled edit batch onto v.
func (v Version) next(recs []byte) Version {
	h := sha256.New()
	h.Write(v[:])
	h.Write(recs)
	var out Version
	copy(out[:], h.Sum(nil))
	return out
}

// docLog is one document's durable history: the binary document of its
// last full put, the generation that put registered it at, and the edit
// batches journaled since, with the generations they advanced it by. It
// is replaced, never mutated, on every change, so a saved pointer is an
// undo record.
type docLog struct {
	base      []byte
	gen       uint64
	tail      []tailEdit
	tailBytes int
	tailGens  uint64
	version   Version
}

// tailEdit is one journaled edit batch: the version it applied to and
// its encoded change records.
type tailEdit struct {
	base Version
	recs []byte
}

// rebaseDue reports whether the edit tail has outgrown the base put.
func (dl *docLog) rebaseDue() bool { return dl.tailBytes > len(dl.base) }

// frames renders the history as the records that rebuild it — the base
// put, then each edit — for snapshots and resync.
func (dl *docLog) frames(name string, emit func(frame []byte) error) error {
	if err := emit(FramePutDocAt(name, dl.base, dl.gen)); err != nil {
		return err
	}
	for _, te := range dl.tail {
		if err := emit(FrameEditDoc(name, te.base, te.recs)); err != nil {
			return err
		}
	}
	return nil
}

// putFields builds a recPutDoc's fields; the generation field is written
// only when nonzero.
func putFields(name string, doc []byte, gen uint64) [][]byte {
	if gen == 0 {
		return [][]byte{[]byte(name), doc}
	}
	return [][]byte{[]byte(name), doc, binary.BigEndian.AppendUint64(nil, gen)}
}

// parsePut splits a recPutDoc's fields.
func parsePut(fields [][]byte) (name string, doc []byte, gen uint64, err error) {
	switch {
	case len(fields) == 2:
	case len(fields) == 3 && len(fields[2]) == 8:
		gen = binary.BigEndian.Uint64(fields[2])
	default:
		return "", nil, 0, fmt.Errorf("putdoc: want [name, document] or [name, document, generation], got %d fields", len(fields))
	}
	return string(fields[0]), fields[1], gen, nil
}

// parseEdit splits a recEditDoc's fields and decodes its records.
func parseEdit(fields [][]byte) (name string, base Version, recs []core.ChangeRecord, err error) {
	if len(fields) != 3 || len(fields[1]) != len(base) {
		return "", base, nil, fmt.Errorf("editdoc: want [name, base version, records], got %d fields", len(fields))
	}
	copy(base[:], fields[1])
	recs, err = core.DecodeChangeRecords(fields[2])
	if err != nil {
		return "", base, nil, fmt.Errorf("editdoc %q: %w", fields[0], err)
	}
	return string(fields[0]), base, recs, nil
}

// FrameEditDoc frames an edit batch against version base of the named
// document. recs is the core.EncodeChangeRecords form of the batch.
func FrameEditDoc(name string, base Version, recs []byte) []byte {
	return encodeFrame(recEditDoc, []byte(name), base[:], recs)
}

// Generation reports the live generation of the named document: its
// base put's generation plus, per batch in its edit tail, one for the
// batch and one per change it recorded — the generation a registry that
// applied the same history assigns. A server
// registering recovered documents at it keeps generations increasing
// across restarts.
func (st *State) Generation(name string) uint64 {
	if dl, ok := st.docs[name]; ok {
		return dl.gen + dl.tailGens
	}
	return 0
}

// putDoc installs a full put, taking ownership of doc and d.
func (st *State) putDoc(name string, doc []byte, gen uint64, d *core.Document) {
	st.Docs[name] = d
	st.docs[name] = &docLog{base: doc, gen: gen, version: baseVersion(doc)}
}

func (st *State) delDoc(name string) {
	delete(st.Docs, name)
	delete(st.docs, name)
}

// editDoc applies one edit batch at version base, taking ownership of
// enc (the batch's encoding). The document is edited in place; a batch
// that fails part-way is rolled back by replaying the history, so a
// failed edit changes nothing.
func (st *State) editDoc(name string, base Version, recs []core.ChangeRecord, enc []byte) error {
	dl, ok := st.docs[name]
	if !ok {
		return fmt.Errorf("%w: no document %q", ErrStaleBase, name)
	}
	if dl.version != base {
		return fmt.Errorf("%w: document %q is at %x, edit expects %x", ErrStaleBase, name, dl.version[:4], base[:4])
	}
	d := st.Docs[name]
	before := d.Generation()
	if err := edit.Apply(d, recs); err != nil {
		st.rebuildDoc(name)
		return fmt.Errorf("editdoc %q: %w", name, err)
	}
	next := *dl
	next.tail = append(next.tail, tailEdit{base: base, recs: enc})
	next.tailBytes += len(enc)
	// One for the batch plus one per change it made: the count a
	// registry's generation advances by (transport.Registry.Generation).
	next.tailGens += 1 + d.Generation() - before
	next.version = base.next(enc)
	st.docs[name] = &next
	return nil
}

// rebase replaces the document's history with a full put of its current
// state, at its current generation, and returns the put's fields.
func (st *State) rebase(name string) ([][]byte, error) {
	dl, ok := st.docs[name]
	if !ok {
		return nil, fmt.Errorf("durable: re-base of unknown document %q", name)
	}
	d := st.Docs[name]
	doc, err := codec.EncodeBinary(d)
	if err != nil {
		return nil, fmt.Errorf("durable: re-base %q: %w", name, err)
	}
	gen := dl.gen + dl.tailGens
	// The clone starts a fresh change log, releasing the old log's node
	// references.
	st.putDoc(name, doc, gen, d.Clone())
	return putFields(name, doc, gen), nil
}

// rebuildDoc replays a document from its history. The history was
// validated record by record on the way in, so replay cannot fail; if it
// somehow does, the document is left as it was.
func (st *State) rebuildDoc(name string) {
	dl, ok := st.docs[name]
	if !ok {
		return
	}
	d, err := codec.DecodeBinary(dl.base)
	if err != nil {
		return
	}
	for _, te := range dl.tail {
		recs, err := core.DecodeChangeRecords(te.recs)
		if err != nil || edit.Apply(d, recs) != nil {
			return
		}
	}
	st.Docs[name] = d
}

// docUndo restores one document to what it was before a batch touched
// it. edited marks a document a batch edited in place.
type docUndo struct {
	name   string
	dl     *docLog
	doc    *core.Document
	edited bool
}

func (st *State) saveDoc(name string, edited bool) docUndo {
	return docUndo{name: name, dl: st.docs[name], doc: st.Docs[name], edited: edited}
}

// undoDocs rolls documents back in reverse order, then rebuilds every
// document an undone edit mutated in place.
func (st *State) undoDocs(undo []docUndo) {
	var rebuild []string
	for i := len(undo) - 1; i >= 0; i-- {
		u := undo[i]
		if u.dl == nil {
			st.delDoc(u.name)
		} else {
			st.docs[u.name], st.Docs[u.name] = u.dl, u.doc
		}
		if u.edited {
			rebuild = append(rebuild, u.name)
		}
	}
	for _, name := range rebuild {
		st.rebuildDoc(name)
	}
}
