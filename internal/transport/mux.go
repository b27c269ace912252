package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/media"
)

// ErrBusy reports a per-connection backpressure rejection: the server
// already had its maximum number of requests in flight on the connection
// and refused to queue more. Matched with errors.Is; retry after other
// requests complete, or raise the pool size.
var ErrBusy = errors.New("transport: server busy")

// errTooLarge is the internal marker for opErrTooLarge responses: the
// block exists but cannot travel as one frame. The client reacts by
// retrying with the chunked stream op; it never escapes to callers.
var errTooLarge = errors.New("transport: block too large for a single frame")

// clientMux multiplexes pipelined requests over one connection: a
// writer goroutine serializes frame writes (coalescing bursts through a
// buffered writer), a reader goroutine demultiplexes response frames to
// per-request channels by request ID, and per-request contexts cancel
// individual calls without poisoning the connection — an abandoned
// request's late frames are simply dropped by the reader.
type clientMux struct {
	conn net.Conn

	// writeCh feeds the writer goroutine; sem bounds the requests in
	// flight to what the server advertised at hello, so well-behaved
	// clients queue locally instead of triggering opErrBusy.
	writeCh chan frame
	sem     chan struct{}

	// sent/recvd/chunks point into the owning Client's traffic counters.
	sent, recvd, chunks *atomic.Int64

	// compress enables the opCompressed request envelope (negotiated at a
	// v4 hello against a codec-capable server); onCompress observes each
	// request frame that actually shipped deflated. Both are fixed before
	// the writer goroutine starts.
	compress   bool
	onCompress func(raw, wire int64)

	mu      sync.Mutex
	pending map[uint32]*muxCall
	nextID  uint32
	err     error // terminal connection error, set once before closing dead
	// ended is set once the reader has exited and closed every pending
	// call's channel; no call registers after it.
	ended bool

	// bye is closed by close: the writer then says goodbye instead of
	// writing any further request.
	bye       chan struct{}
	dead      chan struct{} // closed when either goroutine dies
	deadOnce  sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// muxCall is one in-flight request's delivery state.
type muxCall struct {
	// ch carries the response frames for this request ID. The reader
	// closes it when the connection dies, so a caller waits on ch alone
	// instead of also on the connection-wide dead channel every other
	// caller shares.
	ch chan frame
	// gone is closed when the caller ends the call. A single-response
	// call has none: its one frame always fits in ch, so the reader
	// never waits on it.
	gone chan struct{}
	// detached marks a call that released its in-flight slot early (a
	// long-lived subscription); finish must not release it again.
	// Guarded by the mux mutex.
	detached bool
}

// newClientMux starts the writer and reader goroutines over conn.
// maxInFlight is the server-advertised per-connection bound; compress
// enables the request-side opCompressed envelope and onCompress (may be
// nil) observes frames that actually shipped deflated.
func newClientMux(conn net.Conn, maxInFlight int, sent, recvd, chunks *atomic.Int64, compress bool, onCompress func(raw, wire int64)) *clientMux {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	m := &clientMux{
		conn:       conn,
		writeCh:    make(chan frame, maxInFlight),
		sem:        make(chan struct{}, maxInFlight),
		sent:       sent,
		recvd:      recvd,
		chunks:     chunks,
		compress:   compress,
		onCompress: onCompress,
		pending:    make(map[uint32]*muxCall),
		bye:        make(chan struct{}),
		dead:       make(chan struct{}),
	}
	m.wg.Add(2)
	go m.writeLoop()
	go m.readLoop()
	return m
}

// fail records the terminal error and wakes everything waiting on the
// connection. The first error wins.
func (m *clientMux) fail(err error) {
	m.deadOnce.Do(func() {
		m.mu.Lock()
		m.err = fmt.Errorf("transport: mux connection failed: %w", err)
		m.mu.Unlock()
		close(m.dead)
		_ = m.conn.Close()
	})
}

// deadErr returns the terminal error once the mux is dead.
func (m *clientMux) deadErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		return fmt.Errorf("transport: mux connection closed")
	}
	return m.err
}

// errClientClosed ends a mux the client closed itself.
var errClientClosed = errors.New("client closed")

// closeTimeout bounds how long close waits for the goodbye to leave: a
// write stuck on a peer that stopped reading fails at this deadline.
const closeTimeout = time.Second

// close shuts the mux down. Requests already handed to the writer go
// out; those still queued are dropped — the writer says goodbye ahead
// of them and ends the connection, failing every pending call with
// "client closed". Then both goroutines exit.
func (m *clientMux) close() error {
	m.closeOnce.Do(func() {
		close(m.bye)
		_ = m.conn.SetWriteDeadline(time.Now().Add(closeTimeout))
	})
	m.wg.Wait()
	return nil
}

// writeLoop serializes request frames onto the connection through a
// frameSender (compression and vectored writes per the negotiated
// policy), flushing the buffered writer only when the queue stays
// drained across a scheduler yield — a burst of pipelined requests (or
// of requesters woken by a batch of responses) coalesces into few
// syscalls instead of one per frame.
func (m *clientMux) writeLoop() {
	defer m.wg.Done()
	sender := newFrameSender(m.conn)
	sender.compress = m.compress
	sender.onCompress = m.onCompress
	for {
		var f frame
		select {
		case f = <-m.writeCh:
		case <-m.bye:
		case <-m.dead:
			return
		default:
			// Give requesters one scheduling slot to enqueue before
			// paying the flush syscall.
			runtime.Gosched()
			select {
			case f = <-m.writeCh:
			case <-m.bye:
			case <-m.dead:
				return
			default:
				if err := sender.flush(); err != nil {
					m.fail(err)
					return
				}
				select {
				case f = <-m.writeCh:
				case <-m.bye:
				case <-m.dead:
					return
				}
			}
		}
		select {
		case <-m.bye:
			// Closing: nothing but the goodbye goes out from here on.
			f = frame{op: opGoodbye}
		default:
		}
		n, err := sender.send(f.op, f.id, f.parts)
		if err == nil && f.op == opGoodbye {
			err = sender.flush()
			if err == nil {
				err = errClientClosed
			}
		}
		if err != nil {
			m.fail(err)
			return
		}
		m.sent.Add(n)
	}
}

// countReader counts the bytes actually read off a connection, so the
// received-traffic counter reflects on-wire sizes — a compressed
// response frame counts its envelope, not its inflated body.
type countReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// readLoop demultiplexes response frames to the pending calls. A frame
// whose request ID is unknown — a server bug, or the tail of an
// abandoned call — is dropped; the connection itself stays healthy.
func (m *clientMux) readLoop() {
	defer m.wg.Done()
	defer m.endCalls()
	br := bufio.NewReaderSize(&countReader{r: m.conn, n: m.recvd}, muxBufSize)
	for {
		f, err := readFrame(br)
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		call := m.pending[f.id]
		m.mu.Unlock()
		if call == nil {
			continue
		}
		if call.gone == nil {
			select {
			case call.ch <- f:
			default: // a second frame for a single-response call
			}
			continue
		}
		select {
		case call.ch <- f:
		case <-call.gone:
		case <-m.dead:
			return
		}
	}
}

// endCalls runs as the reader exits, after the connection died: the
// reader was the only sender on the pending calls' channels, so closing
// them now wakes every waiting caller with the connection's fate.
func (m *clientMux) endCalls() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ended = true
	for _, call := range m.pending {
		close(call.ch)
	}
}

// begin registers a new call and enqueues its request frame, honouring
// ctx and the in-flight bound. The caller must end the call with
// m.finish(id, call) exactly once.
func (m *clientMux) begin(ctx context.Context, op byte, parts [][]byte) (uint32, *muxCall, error) {
	// Buffered past the deepest healthy sequence (header + chunks +
	// end arrive one at a time, consumed in lockstep); the reader
	// only parks here when a response races the call's abandonment.
	return m.beginBuf(ctx, op, parts, 4)
}

// beginSingle is begin for a request answered by exactly one frame.
func (m *clientMux) beginSingle(ctx context.Context, op byte, parts [][]byte) (uint32, *muxCall, error) {
	return m.beginBuf(ctx, op, parts, 0)
}

// beginBuf is begin with a caller-chosen response buffer: long-lived
// subscription calls want a deeper channel so the reader never parks on
// a consumer that is between Recv calls. A zero bufCap makes a
// single-response call.
func (m *clientMux) beginBuf(ctx context.Context, op byte, parts [][]byte, bufCap int) (uint32, *muxCall, error) {
	select {
	case m.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	case <-m.dead:
		return 0, nil, m.deadErr()
	}
	call := &muxCall{ch: make(chan frame, max(bufCap, 1))}
	if bufCap > 0 {
		call.gone = make(chan struct{})
	}
	m.mu.Lock()
	if m.ended {
		m.mu.Unlock()
		<-m.sem
		return 0, nil, m.deadErr()
	}
	m.nextID++
	id := m.nextID
	m.pending[id] = call
	m.mu.Unlock()
	select {
	case m.writeCh <- frame{op: op, id: id, parts: parts}:
		return id, call, nil
	case <-ctx.Done():
		m.finish(id, call)
		return 0, nil, ctx.Err()
	case <-m.dead:
		m.finish(id, call)
		return 0, nil, m.deadErr()
	}
}

// finish deregisters a call and releases its in-flight slot. Late frames
// for the ID are dropped by the reader from here on.
func (m *clientMux) finish(id uint32, call *muxCall) {
	m.mu.Lock()
	delete(m.pending, id)
	detached := call.detached
	m.mu.Unlock()
	if call.gone != nil {
		close(call.gone)
	}
	if !detached {
		<-m.sem
	}
}

// detach releases the call's in-flight slot while keeping the call
// registered. A subscription occupies its request ID for the whole watch
// but must not hold a pipeline slot hostage — after its snapshot arrives
// the server pushes frames unprompted, paying admission per push, so the
// client-side slot would only starve ordinary requests. The caller still
// ends the call with finish exactly once.
func (m *clientMux) detach(call *muxCall) {
	m.mu.Lock()
	call.detached = true
	m.mu.Unlock()
	<-m.sem
}

// abandon gives up on a call whose request already reached the wire —
// a cancelled context, most likely — WITHOUT releasing its in-flight
// slot yet: the server is still working on the request, so releasing
// immediately would let the client over-fill the pipeline and draw
// spurious opErrBusy rejections. A drainer goroutine consumes the
// call's frames until the server's terminal response (or connection
// death) and releases the slot then, keeping the two sides' in-flight
// accounting in step.
func (m *clientMux) abandon(id uint32, call *muxCall) {
	go func() {
		defer m.finish(id, call)
		for f := range call.ch {
			switch f.op {
			case opStreamHdr, opStreamChunk:
				// Mid-stream frames; the terminal one follows.
			default:
				return
			}
		}
	}()
}

// recv waits for the call's next response frame. Frames that arrived
// before the connection died are still delivered; after them, the
// closed channel reports the connection's fate.
func (m *clientMux) recv(ctx context.Context, call *muxCall) (frame, error) {
	select {
	case f, ok := <-call.ch:
		if !ok {
			return frame{}, m.deadErr()
		}
		return f, nil
	case <-ctx.Done():
		return frame{}, ctx.Err()
	}
}

// roundTrip performs one single-response exchange over the mux. The
// context's deadline (or, absent one, c.Timeout) bounds the exchange;
// cancellation abandons only this request: the connection and every
// other in-flight call on it stay healthy.
func (c *Client) roundTrip(ctx context.Context, op byte, parts ...[]byte) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	m := c.mux
	id, call, err := m.beginSingle(ctx, op, parts)
	if err != nil {
		return nil, err
	}
	c.roundTrips.Add(1)
	f, err := m.recv(ctx, call)
	if err != nil {
		m.abandon(id, call)
		return nil, err
	}
	m.finish(id, call)
	return muxResponse(f)
}

// muxResponse maps a terminal response frame to parts or a typed error.
func muxResponse(f frame) ([][]byte, error) {
	switch f.op {
	case opOK:
		return f.parts, nil
	case opErrNotFound:
		return nil, fmt.Errorf("%w: %w: %s", ErrRemote, ErrNotFound, errText(f))
	case opErrBusy:
		return nil, fmt.Errorf("%w: %w: %s", ErrRemote, ErrBusy, errText(f))
	case opErrTooLarge:
		return nil, fmt.Errorf("%w: %w: %s", ErrRemote, errTooLarge, errText(f))
	case opErr:
		return nil, fmt.Errorf("%w: %s", ErrRemote, errText(f))
	default:
		return nil, fmt.Errorf("transport: unexpected response op %d", f.op)
	}
}

func errText(f frame) string {
	if len(f.parts) > 0 {
		return string(f.parts[0])
	}
	return "unknown"
}

// getBlockStream fetches one block as a chunked stream — the only way a
// block past the single-frame limit travels — reassembling the sequenced
// chunk frames and verifying size, order and chunk count.
func (c *Client) getBlockStream(ctx context.Context, name string) (*media.Block, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	m := c.mux
	id, call, err := m.begin(ctx, opGetBlkStream, [][]byte{[]byte(name)})
	if err != nil {
		return nil, err
	}
	c.roundTrips.Add(1)
	var asm chunkAssembler
	for {
		f, err := m.recv(ctx, call)
		if err != nil {
			m.abandon(id, call)
			return nil, err
		}
		switch f.op {
		case opStreamHdr:
			if err := asm.begin(f.parts); err != nil {
				m.abandon(id, call)
				return nil, err
			}
		case opStreamChunk:
			if err := asm.chunk(f.parts); err != nil {
				m.abandon(id, call)
				return nil, err
			}
			c.streamChunks.Add(1)
		case opStreamEnd:
			blk, err := asm.finish(f.parts, &c.descs)
			m.finish(id, call)
			if err == nil {
				c.seedChunks(blk.Payload)
			}
			return blk, err
		default:
			m.finish(id, call)
			_, err := muxResponse(f)
			if err == nil {
				err = fmt.Errorf("transport: unexpected op %d inside stream", f.op)
			}
			return nil, err
		}
	}
}
