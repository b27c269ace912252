package transport

// The mux write path: one frameSender per connection (client writeLoop
// and server response writer) writes every frame after the hello, and
// owns the wire policy. One encoder lays each frame out as a gather
// list (the header and every part-length prefix built once, in one meta
// buffer, with the payload parts as the caller's own slices), and one
// of three sinks ships it:
//
//   - compressed: when negotiated, frame bodies at or past the codec
//     floor are deflated whole into an opCompressed envelope, with the
//     incompressible-data bypass falling back to a raw sink;
//   - vectored: large raw frames skip the bufio copy entirely — the
//     buffered writer is flushed and the gather list goes to the
//     connection as one writev (net.Buffers) whose payload elements are
//     the store's own (possibly mmap-backed) slices, so payload bytes
//     move store → conn with no intermediate copy;
//   - buffered: everything else is copied into the buffered writer.
//
// send reports the actual on-wire byte count, which is what the
// traffic counters (and the S9 bytes-on-wire accounting) record.

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"

	"repro/internal/codec"
)

// vectoredThreshold is the payload size past which a raw frame is
// written as a writev gather list instead of through the buffered
// writer. Below it the bufio copy is cheaper than a flush + extra
// syscall. A variable so tests can force the vectored path with small
// payloads.
var vectoredThreshold = 64 << 10

// frameSender writes mux frames for one connection with the negotiated
// wire policy. Not safe for concurrent use: each connection has exactly
// one writer goroutine, which is what owns it.
type frameSender struct {
	conn io.Writer
	bw   *bufio.Writer
	// compress enables the opCompressed envelope (negotiated at hello:
	// protocol v4 plus the codec capability).
	compress bool
	// onCompress, when set, observes every frame that actually shipped
	// compressed: raw is the plain encoding's size, wire the envelope's.
	onCompress func(raw, wire int64)

	// meta and iov are the encoder's scratch, reused frame to frame.
	meta []byte
	iov  net.Buffers
}

func newFrameSender(conn io.Writer) *frameSender {
	return &frameSender{conn: conn, bw: bufio.NewWriterSize(conn, muxBufSize)}
}

// send writes one frame under the sender's policy and returns its
// on-wire size. The frame may still be sitting in the buffered writer
// when send returns; flush before blocking on reads.
func (s *frameSender) send(op byte, id uint32, parts [][]byte) (int64, error) {
	total, err := s.encode(op, id, parts)
	if err != nil {
		return 0, err
	}
	// The gather list references the caller's parts only until the
	// frame is out; do not pin payloads until the next send.
	defer clear(s.iov)
	if s.compress && total >= codec.CompressFloor {
		if n, ok, err := s.sendCompressed(total); ok || err != nil {
			return n, err
		}
	}
	if payload := total - (frameHdrLen - 4) - 4*len(parts); payload >= vectoredThreshold {
		if err := s.bw.Flush(); err != nil {
			return 0, err
		}
		// WriteTo consumes the list it is given; keep s.iov's capacity.
		iov := s.iov
		if _, err := iov.WriteTo(s.conn); err != nil {
			return 0, err
		}
		return int64(4 + total), nil
	}
	for _, b := range s.iov {
		if _, err := s.bw.Write(b); err != nil {
			return 0, err
		}
	}
	return int64(4 + total), nil
}

// encode validates the frame and lays it out in s.iov:
//
//	u32 totalLen | u8 op | u32 reqID | u16 partCount | (u32 len | bytes)*
//
// Meta ranges alternate with the non-empty parts; an empty part's
// prefix folds into the next meta range, so the list holds at most
// 2·parts+1 elements. total is the body size after totalLen.
func (s *frameSender) encode(op byte, id uint32, parts [][]byte) (int, error) {
	total, err := checkParts(frameHdrLen-4, parts)
	if err != nil {
		return 0, err
	}
	meta := s.meta[:0]
	meta = binary.BigEndian.AppendUint32(meta, uint32(total))
	meta = append(meta, op)
	meta = binary.BigEndian.AppendUint32(meta, id)
	meta = binary.BigEndian.AppendUint16(meta, uint16(len(parts)))
	for _, p := range parts {
		meta = binary.BigEndian.AppendUint32(meta, uint32(len(p)))
	}
	s.meta = meta
	iov := s.iov[:0]
	prev, off := 0, frameHdrLen // pending meta range: header + successive prefixes
	for _, p := range parts {
		off += 4
		if len(p) == 0 {
			continue
		}
		iov = append(iov, meta[prev:off], p)
		prev = off
	}
	if prev < off {
		iov = append(iov, meta[prev:off])
	}
	s.iov = iov
	return total, nil
}

// sendCompressed deflates the encoded frame body and writes the
// envelope. ok is false (and nothing is written) when compression was
// not worthwhile.
func (s *frameSender) sendCompressed(total int) (int64, bool, error) {
	body := make([]byte, 0, total)
	for i, b := range s.iov {
		if i == 0 {
			b = b[4:] // the envelope carries its own totalLen
		}
		body = append(body, b...)
	}
	comp, ok := codec.CompressFrame(body)
	if !ok {
		return 0, false, nil
	}
	var hdr [4 + 1 + 4]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(1+4+len(comp)))
	hdr[4] = opCompressed
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(body)))
	if _, err := s.bw.Write(hdr[:]); err != nil {
		return 0, true, err
	}
	if _, err := s.bw.Write(comp); err != nil {
		return 0, true, err
	}
	wire := int64(len(hdr) + len(comp))
	if s.onCompress != nil {
		s.onCompress(int64(4+total), wire)
	}
	return wire, true, nil
}

func (s *frameSender) flush() error { return s.bw.Flush() }
