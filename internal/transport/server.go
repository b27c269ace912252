package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/attr"
	"repro/internal/chunker"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/media"
)

// Registry holds the documents and blocks a server offers. Safe for
// concurrent use.
type Registry struct {
	mu    sync.RWMutex
	docs  map[string]*core.Document
	Store *media.Store

	// OnPutDoc, when non-nil, observes every wholesale document
	// registration (with the registry's own clone, after it lands). The
	// durability layer uses it to journal document puts. Set before
	// serving.
	OnPutDoc func(name string, d *core.Document)
	// OnEditDoc, when non-nil, journals every edit batch EditDoc accepts:
	// it runs after the batch applies to the registry's clone and before
	// the clone is installed and fanned out, and an error refuses the
	// batch. The durability layer uses it to journal the batch's change
	// records rather than the edited document. Set before serving.
	OnEditDoc func(name string, recs []core.ChangeRecord) error
	// DurabilityErr, when non-nil, reports whether the durability layer
	// has failed; mutating ops are refused once it returns non-nil, so
	// the server never acknowledges a write it could not persist. Set
	// before serving.
	DurabilityErr func() error

	// live is the protocol-v3 fan-out hub: per-document generations and
	// subscriber queues, guarded by mu (see live.go).
	live liveState
}

// NewRegistry returns an empty registry backed by store (a fresh store when
// nil).
func NewRegistry(store *media.Store) *Registry {
	if store == nil {
		store = media.NewStore()
	}
	return &Registry{docs: make(map[string]*core.Document), Store: store}
}

// PutDoc registers a document under name.
func (r *Registry) PutDoc(name string, d *core.Document) {
	clone := d.Clone()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.docs[name] = clone
	// The hook runs under the lock so racing registrations of one name
	// journal in the order they landed in the map — recovery replays the
	// same winner the pre-crash server served. (Readers of the registry
	// wait out the journal append, fsync included under SyncAlways.)
	if r.OnPutDoc != nil {
		r.OnPutDoc(name, clone)
	}
	r.notePutDocLocked(name, clone)
}

// GetDoc fetches a clone of the document registered under name.
func (r *Registry) GetDoc(name string) (*core.Document, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.docs[name]
	if !ok {
		return nil, false
	}
	return d.Clone(), true
}

// DocNames returns registered document names, sorted.
func (r *Registry) DocNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.docs))
	for n := range r.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Encoding selects the document wire encoding.
type Encoding byte

const (
	// EncodingText is the human-readable form.
	EncodingText Encoding = 't'
	// EncodingBinary is the compact TLV form.
	EncodingBinary Encoding = 'b'
)

// GetDocOptions shapes a document fetch.
type GetDocOptions struct {
	Encoding Encoding
	// Inline ships payloads inside the tree (no common storage server).
	Inline bool
}

// Server serves a registry over TCP: multiplexed, pipelined requests at
// the protocol version (2 to 4) each client negotiates at connect. A
// client that skips the hello — one that predates protocol v2 — is
// refused.
type Server struct {
	reg *Registry

	// IdleTimeout bounds how long a connection may sit without delivering
	// any data — between requests, or stalled mid-request — before the
	// server hangs up; every received chunk re-arms it, so a slow but
	// progressing upload is not cut off. Zero means forever. Set before
	// Listen.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response frame write, so a slow or stuck
	// client cannot pin a serving goroutine forever; zero means no bound.
	// Set before Listen.
	WriteTimeout time.Duration
	// MaxInFlight bounds how many requests one connection may have in
	// flight; requests past the bound are rejected with opErrBusy. The
	// bound is advertised to the client at hello. Zero means
	// defaultMaxInFlight. Set before Listen.
	MaxInFlight int
	// MaxVersion caps the protocol version the server negotiates, from 2
	// to 4; zero means the newest this build speaks. Listen refuses any
	// other value. Set before Listen.
	MaxVersion int
	// Compression enables per-frame flate compression on connections
	// that negotiate protocol v4: the hello response advertises the
	// codec, and response frames past the codec floor ship deflated
	// unless they prove incompressible. Decoding compressed frames is
	// always on regardless of this flag. Set before Listen.
	Compression bool
	// Admission configures server-wide admission control: a concurrency
	// bound across all connections with a bounded, deadline-aware queue.
	// Requests past the bounds are shed with opErrBusy instead of
	// degrading every request's latency. The zero value disables it. Set
	// before Listen.
	Admission Admission
	// SubQueueCap bounds each live-document subscriber's event queue
	// (protocol v3): a watcher whose queue overflows is shed with a
	// changeEnd frame instead of buffering without bound. Zero means
	// defaultSubQueue. Set before Listen.
	SubQueueCap int
	// Metrics, when non-nil, records request counts, per-op latency,
	// in-flight and queue gauges, busy rejections and descriptor-cache
	// effectiveness (NewServerMetrics). Set before Listen.
	Metrics *ServerMetrics
	// Cluster, when non-nil, turns the server into one node of a
	// replicated cluster: writes — document registrations, block puts,
	// edit batches — route through the handler (which journals on the
	// key's primary and replicates before acknowledging), reads that
	// miss locally are proxied to the key's replicas, and the gossip,
	// replication and resync ops (opGossip/opReplicate/opResync) are
	// answered. Mutually exclusive with Loader. Set before Listen.
	Cluster ClusterHandler
	// Loader, when non-nil, turns the server into a read-through proxy:
	// document and block lookups that miss the local registry consult the
	// loader (which typically fetches from an upstream origin and caches),
	// and mutations — document registrations, block puts, edit batches —
	// are forwarded upstream instead of applied locally, so the origin
	// stays the single writer and mutations flow back down through the
	// proxy's upstream subscriptions. Set before Listen.
	Loader Loader

	// ServiceDelay, when nonzero, stalls every admitted request for the
	// given duration before handling — a capacity-modeling knob for
	// benchmarks that emulate a fixed per-node service time (so cluster
	// scaling measures added serving slots, not the host's core count).
	// Zero, the production value, disables it. Set before Listen.
	ServiceDelay time.Duration

	// testOpDelay, when non-nil, stalls request handling — a test hook
	// for exercising backpressure deterministically.
	testOpDelay func(op byte)

	// descCache memoizes wire-encoded block descriptors by content
	// address. Blocks are immutable under their ID, so the entry never
	// goes stale; it saves re-encoding the descriptor on every fetch of
	// a hot block.
	descCache sync.Map // string (block ID) → []byte (descriptor text)

	// adm enforces Admission; nil admits everything. Built at Listen.
	adm *admitter

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// NewServer returns a server over reg.
func NewServer(reg *Registry) *Server {
	return &Server{reg: reg, conns: make(map[net.Conn]struct{})}
}

// Loader is the read-through seam an edge cache implements (see
// Server.Loader). Load methods run on request-handler goroutines and
// may block on upstream round trips; Forward methods relay mutations to
// the authority and return its verdict.
type Loader interface {
	// LoadDoc materializes the document registered upstream under name
	// into the server's registry (typically by subscribing upstream, so
	// later mutations stream down as deltas) and reports whether it
	// exists. A false return answers the client's request with not-found.
	LoadDoc(name string) bool
	// LoadBlock fetches a block the local store misses, by name or
	// content address. The implementation caches what it returns.
	LoadBlock(name string) (*media.Block, bool)
	// ForwardPutDoc relays a wholesale document registration upstream.
	ForwardPutDoc(name string, d *core.Document) error
	// ForwardPutBlock relays a block put upstream, returning the content
	// address the authority assigned.
	ForwardPutBlock(b *media.Block) (string, error)
	// ForwardEdit relays an edit batch upstream, returning the new
	// authoritative generation.
	ForwardEdit(name string, recs []core.ChangeRecord) (uint64, error)
	// ListDocs names the documents the authority offers.
	ListDocs() ([]string, error)
}

// ClusterHandler is the seam a cluster node implements (see
// Server.Cluster). Write methods run on request-handler goroutines and
// may block on forwarding and synchronous replication; read-miss methods
// may block on peer round trips.
type ClusterHandler interface {
	// Gossip merges a peer's encoded membership view and returns the
	// local view (after the merge). An empty view reads membership
	// without asserting any.
	Gossip(view []byte) ([]byte, error)
	// Replicate verifies and appends a batch of framed WAL records
	// shipped by a key's primary, applying them to the live state.
	Replicate(frames []byte) error
	// Resync returns a chunk of full-state WAL records starting at
	// cursor ("" starts); an empty next cursor ends the walk.
	Resync(cursor string) (frames []byte, next string, err error)
	// PutDoc routes a document registration through the ring: journal
	// on the primary, replicate, then acknowledge.
	PutDoc(name string, d *core.Document) error
	// PutBlock routes a block put through the ring, returning the
	// content address.
	PutBlock(b *media.Block) (string, error)
	// SubmitEdit routes an edit batch through the ring, returning the
	// new generation. A missing document matches ErrNotFound; a
	// conflict keeps its "conflict:" text.
	SubmitEdit(name string, recs []core.ChangeRecord) (uint64, error)
	// MissingDoc proxies a read for a document this node does not hold
	// to the key's replicas.
	MissingDoc(name string) (*core.Document, bool)
	// MissingBlock proxies a block read this node cannot serve.
	MissingBlock(name string) (*media.Block, bool)
	// DocNames merges the cluster-wide document listing.
	DocNames() ([]string, error)
}

// Listen starts accepting on addr ("127.0.0.1:0" for tests) and returns the
// bound address. Serving happens on background goroutines until Close or
// Shutdown.
func (s *Server) Listen(addr string) (string, error) {
	if s.MaxVersion != 0 {
		if err := CheckVersionCap(s.MaxVersion); err != nil {
			return "", err
		}
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = l
	if s.adm == nil {
		s.adm = newAdmitter(s.Admission, s.Metrics)
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

// Close force-closes the listener and every open connection, then waits for
// the serving goroutines. For a shutdown that lets in-flight requests
// finish, use Shutdown.
func (s *Server) Close() error {
	err := s.beginShutdown(true)
	s.wg.Wait()
	return err
}

// Shutdown stops accepting, lets every in-flight request complete (closing
// each connection once its current request is answered), and returns. If
// ctx expires first, remaining connections are force-closed and ctx's error
// is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.beginShutdown(false)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.closeConns()
		<-done
		if err == nil {
			err = ctx.Err()
		}
		return err
	}
}

// beginShutdown closes the listener, marks the server draining and (when
// force is set) closes every open connection.
func (s *Server) beginShutdown(force bool) error {
	s.mu.Lock()
	l := s.listener
	s.listener = nil
	s.draining = true
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	if force {
		s.closeConns()
	} else {
		// Expire pending reads so idle connections notice the drain;
		// connections mid-request still complete their response write.
		s.mu.Lock()
		for c := range s.conns {
			_ = c.SetReadDeadline(time.Unix(1, 0))
		}
		s.mu.Unlock()
	}
	return err
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
}

// track registers conn; it reports false when the server is already
// draining and the connection should be refused.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// armIdle sets the idle read deadline for the next request, unless the
// server is draining. Holding s.mu serializes this against beginShutdown's
// deadline poisoning: either the drain is visible here (return false), or
// the freshly armed deadline is poisoned after us.
func (s *Server) armIdle(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	if s.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
	}
	return true
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.Metrics.connOpened()
			defer s.Metrics.connClosed()
			s.serveConn(conn)
		}()
	}
}

// idleReader re-arms the connection's idle deadline on every received
// chunk, so IdleTimeout measures stalls rather than total request size.
// While draining, armIdle declines to re-arm and the poisoned deadline
// ends the read.
type idleReader struct {
	s    *Server
	conn net.Conn
}

func (r *idleReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if n > 0 {
		r.s.armIdle(r.conn)
	}
	return n, err
}

// maxInFlight resolves the per-connection pipelining bound.
func (s *Server) maxInFlight() int {
	if s.MaxInFlight > 0 {
		return s.MaxInFlight
	}
	return defaultMaxInFlight
}

// maxVersion resolves the newest protocol version the server offers.
func (s *Server) maxVersion() int {
	if s.MaxVersion != 0 {
		return s.MaxVersion
	}
	return MaxProtocolVersion
}

// serveConn handles one client until EOF, goodbye, timeout or drain. The
// first frame must be a hello, which negotiates the protocol version;
// the connection then switches to the multiplexed loop. A draining
// server answers the requests in flight, then hangs up.
func (s *Server) serveConn(conn net.Conn) {
	// The read side is buffered over the idle-rearming reader: pipelined
	// clients deliver bursts of frames per syscall, and the idle deadline
	// still re-arms on every chunk the kernel delivers.
	in := bufio.NewReaderSize(&idleReader{s: s, conn: conn}, muxBufSize)
	if !s.armIdle(conn) {
		return
	}
	req, err := readHello(in)
	if err != nil || req.op == opGoodbye {
		return
	}
	if req.op != opHello {
		// A hello-less first frame is a protocol-v1 request: answer it
		// once, in the framing it expects, and hang up.
		s.writeHello(conn, opErr, []byte("protocol v1 is no longer served"))
		return
	}
	if len(req.parts) != 1 || len(req.parts[0]) != 1 {
		s.writeHello(conn, opErr, []byte("hello: want [maxVersion]"))
		return
	}
	version := min(s.maxVersion(), int(req.parts[0][0]))
	if version < protoV2 {
		s.writeHello(conn, opErr, []byte("hello: no common protocol version"))
		return
	}
	helloParts := [][]byte{{byte(version)}, binary.BigEndian.AppendUint16(nil, uint16(s.maxInFlight()))}
	if version >= protoV4 {
		// The codec capability part: pre-v4 clients tolerate extra
		// hello parts, so it is only meaningful — and only sent — when
		// v4 was negotiated.
		frameCodec := codec.FrameCodecNone
		if s.Compression {
			frameCodec = codec.FrameCodecFlate
		}
		helloParts = append(helloParts, []byte{frameCodec})
	}
	if err := s.writeHello(conn, opOK, helloParts...); err != nil {
		return
	}
	s.serveMux(conn, in, version)
}

// writeHello sends one hello-framed message with the configured write
// deadline.
func (s *Server) writeHello(conn net.Conn, op byte, parts ...[]byte) error {
	if s.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	}
	return writeHello(conn, op, parts...)
}

// muxConn is one multiplexed connection's shared state: the response
// channel its writer drains, the done channel that stops long-lived
// subscription pumps when the read loop exits, the WaitGroup covering
// handlers and pumps alike, and the per-connection subscription table
// (request ID → subscriber) that opUnsubscribe resolves against.
type muxConn struct {
	s       *Server
	version int
	respCh  chan frame
	done    chan struct{}
	wg      sync.WaitGroup

	mu   sync.Mutex
	subs map[uint32]*subscriber
}

// addSub records a live subscription under its opSubscribe request ID.
func (cc *muxConn) addSub(id uint32, sub *subscriber) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.subs == nil {
		cc.subs = make(map[uint32]*subscriber)
	}
	cc.subs[id] = sub
}

// takeSub resolves and forgets a subscription by request ID.
func (cc *muxConn) takeSub(id uint32) *subscriber {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	sub := cc.subs[id]
	delete(cc.subs, id)
	return sub
}

// dropSub forgets a subscription (the pump is exiting on its own).
func (cc *muxConn) dropSub(id uint32) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	delete(cc.subs, id)
}

// serveMux is the multiplexed loop: the connection goroutine reads
// request frames and dispatches each to its own handler goroutine,
// bounded by the per-connection in-flight limit — requests past the
// bound are rejected immediately with opErrBusy. A writer goroutine
// serializes response frames (coalescing bursts through a buffered
// writer, bounding each write with the write timeout), so responses
// complete out of order and a large streamed block interleaves with
// other responses instead of blocking them. On drain the reader stops,
// subscription pumps are told to wind down, in-flight handlers finish,
// and their responses are flushed before the connection closes.
func (s *Server) serveMux(conn net.Conn, in *bufio.Reader, version int) {
	maxIF := s.maxInFlight()
	respCh := make(chan frame, maxIF+2)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		sender := newFrameSender(conn)
		// Response compression is a v4 negotiation outcome; the codec
		// seam itself decides per frame (size floor, incompressible
		// bypass).
		sender.compress = s.Compression && version >= protoV4
		sender.onCompress = s.Metrics.frameCompressed
		failed := false
		flush := func() {
			if failed {
				return
			}
			if s.WriteTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
			}
			if err := sender.flush(); err != nil {
				// The connection is gone (or the client too slow): keep
				// draining respCh so handlers never block, and kill the
				// read side so the connection goroutine unwinds.
				failed = true
				_ = conn.Close()
			}
		}
		for {
			var f frame
			var ok bool
			select {
			case f, ok = <-respCh:
			default:
				// Give handlers one scheduling slot to emit more
				// responses before paying the flush syscall.
				runtime.Gosched()
				select {
				case f, ok = <-respCh:
				default:
					flush()
					f, ok = <-respCh
				}
			}
			if !ok {
				flush()
				return
			}
			if failed {
				if f.done != nil {
					f.done()
				}
				continue
			}
			if s.WriteTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
			}
			_, err := sender.send(f.op, f.id, f.parts)
			if f.done != nil {
				// The frame is in the write buffer (or the buffer's own
				// flush blocked until the socket drained): release the
				// admission slot only now, so clients that cannot absorb
				// responses keep the server's capacity visibly occupied.
				f.done()
			}
			if err != nil {
				failed = true
				_ = conn.Close()
			}
		}
	}()

	cc := &muxConn{s: s, version: version, respCh: respCh, done: make(chan struct{})}
	sem := make(chan struct{}, maxIF)
	for s.armIdle(conn) {
		req, err := readFrame(in)
		if err != nil {
			break
		}
		if req.op == opGoodbye {
			break
		}
		if !admit(sem) {
			s.Metrics.countRequest(req.op)
			s.Metrics.shed(shedConnInflight)
			respCh <- frame{op: opErrBusy, id: req.id,
				parts: [][]byte{[]byte(fmt.Sprintf("busy: %d requests in flight", maxIF))}}
			continue
		}
		if s.inline(req.op) {
			s.handleMux(cc, req)
			<-sem
			continue
		}
		cc.wg.Add(1)
		go func(req frame) {
			defer cc.wg.Done()
			defer func() { <-sem }()
			s.handleMux(cc, req)
		}(req)
	}
	// Stop subscription pumps first: they run for the subscription's
	// lifetime, not a request's, and would otherwise hold the WaitGroup
	// open forever. The writer keeps draining respCh until it closes, so
	// a pump blocked mid-send always completes.
	close(cc.done)
	cc.wg.Wait()
	close(respCh)
	<-writerDone
}

// inline reports whether the connection goroutine answers a request
// itself instead of handing it to a handler: a lookup the local store
// answers from memory, on a server with no upstream to consult, no
// admission queue and no injected delay — nothing that could stall the
// requests read after it. On such small reads the hand-off to another
// goroutine costs as much as the work.
func (s *Server) inline(op byte) bool {
	if s.Loader != nil || s.Cluster != nil || s.adm != nil || s.ServiceDelay > 0 || s.testOpDelay != nil {
		return false
	}
	return op == opGetBlk || op == opGetDescs
}

// admit claims one in-flight slot without blocking the read loop. When
// the pool looks full it yields once and retries: a handler that has
// already enqueued its response but was preempted before releasing its
// slot gets the scheduling slot it needs, so a client pipelining right
// at the advertised bound is not spuriously rejected by that tiny
// window. A genuinely saturated connection still rejects immediately
// after the one yield.
func admit(sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
	}
	runtime.Gosched()
	select {
	case sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// handleMux executes one multiplexed request — first through server-wide
// admission control, then the dispatcher — emitting its response frame(s)
// (several for a streamed block) in order onto respCh. Admission waiting
// happens here, on the handler goroutine, so a saturated server never
// stalls the connection's read loop: later frames still reach their own
// handlers (or their own fast busy rejections).
func (s *Server) handleMux(cc *muxConn, req frame) {
	respCh := cc.respCh
	s.Metrics.countRequest(req.op)
	start := time.Now()
	release, shed := s.adm.acquire()
	if shed != "" {
		respCh <- frame{op: opErrBusy, id: req.id, parts: [][]byte{busyText(shed)}}
		return
	}
	s.Metrics.inflightAdd(1)
	defer s.Metrics.inflightAdd(-1)
	defer s.Metrics.observe(req.op, start)
	if s.testOpDelay != nil {
		s.testOpDelay(req.op)
	}
	if s.ServiceDelay > 0 {
		time.Sleep(s.ServiceDelay)
	}
	switch req.op {
	case opGetBlkStream:
		// The stream handler blocks on respCh while it emits chunks, so
		// the slot already covers the write side; release on return.
		defer release()
		s.handleStream(req, respCh)
		return
	case opSubscribe:
		// The subscription pump inherits the slot: it releases with the
		// snapshot frame's write, then runs slot-free for the
		// subscription's lifetime.
		s.handleSubscribe(cc, req, release)
		return
	case opUnsubscribe:
		s.handleUnsubscribe(cc, req, release)
		return
	}
	op, parts := s.handle(req.op, req.parts)
	// The slot travels with the response frame and is released by the
	// writer once the frame is actually written: a request occupies
	// admission capacity for its whole lifetime, not just its compute,
	// so overload driven by response backpressure still sheds.
	respCh <- frame{op: op, id: req.id, parts: parts, done: release}
}

// handleSubscribe answers opSubscribe: it registers a watcher on the
// document (whose queue the registry seeds with the current snapshot,
// atomically with the registration) and starts the pump goroutine that
// drains the queue onto the connection for the subscription's lifetime.
// The admission slot rides the first pushed frame, exactly like a plain
// response.
func (s *Server) handleSubscribe(cc *muxConn, req frame, release func()) {
	respCh := cc.respCh
	if cc.version < protoV3 {
		respCh <- frame{op: opErr, id: req.id,
			parts: [][]byte{[]byte("subscribe: requires protocol v3")}, done: release}
		return
	}
	if len(req.parts) != 1 && len(req.parts) != 2 {
		respCh <- frame{op: opErr, id: req.id,
			parts: [][]byte{[]byte("subscribe: want [name] or [name, subtree]")}, done: release}
		return
	}
	name := string(req.parts[0])
	subtree := ""
	if len(req.parts) == 2 {
		subtree = string(req.parts[1])
	}
	sub, err := s.subscribeDoc(name, subtree)
	switch {
	case errors.Is(err, errUnknownDoc):
		respCh <- frame{op: opErrNotFound, id: req.id,
			parts: [][]byte{[]byte(err.Error())}, done: release}
		return
	case errors.Is(err, errSubsFull):
		s.Metrics.shed(shedSubsFull)
		respCh <- frame{op: opErrBusy, id: req.id,
			parts: [][]byte{busyText(shedSubsFull)}, done: release}
		return
	case err != nil:
		respCh <- frame{op: opErr, id: req.id,
			parts: [][]byte{[]byte(err.Error())}, done: release}
		return
	}
	cc.addSub(req.id, sub)
	s.Metrics.subscriberAdd(1)
	cc.wg.Add(1)
	go s.pumpSub(cc, req.id, sub, release)
}

// pumpSub forwards one subscriber's events onto the connection until the
// subscription ends (unsubscribe, shed, registry replacement failure) or
// the connection winds down. It owns the subscriber's registry
// registration and the active-subscriber gauge: whatever the exit path,
// both are released — the leak test pins this.
func (s *Server) pumpSub(cc *muxConn, id uint32, sub *subscriber, release func()) {
	defer cc.wg.Done()
	defer s.Metrics.subscriberAdd(-1)
	defer s.reg.unsubscribe(sub)
	defer cc.dropSub(id)
	send := func(f frame) bool {
		select {
		case cc.respCh <- f:
			return true
		case <-cc.done:
			if f.done != nil {
				f.done()
			}
			return false
		}
	}
	for {
		select {
		case ev := <-sub.q:
			f := frame{op: opChange, id: id, parts: ev.parts(), done: release}
			release = nil
			if ev.kind == changeDelta {
				s.Metrics.deltaPushed(time.Since(ev.at))
			}
			if !send(f) {
				return
			}
		case <-sub.stop:
			if sub.reason == shedSubSlow {
				s.Metrics.shed(shedSubSlow)
			}
			send(frame{op: opChange, id: id, parts: endParts(sub.reason), done: release})
			return
		case <-cc.done:
			if release != nil {
				release()
			}
			return
		}
	}
}

// handleUnsubscribe answers opUnsubscribe: it ends the named
// subscription — the pump emits the terminal changeEnd frame — and
// acknowledges. Unsubscribing an unknown or already-ended subscription
// is not an error: the shed path races client-requested ends by design.
func (s *Server) handleUnsubscribe(cc *muxConn, req frame, release func()) {
	if len(req.parts) != 1 || len(req.parts[0]) != 4 {
		cc.respCh <- frame{op: opErr, id: req.id,
			parts: [][]byte{[]byte("unsubscribe: want [subID(u32)]")}, done: release}
		return
	}
	subID := binary.BigEndian.Uint32(req.parts[0])
	if sub := cc.takeSub(subID); sub != nil {
		sub.end(endReasonUnsubscribed)
	}
	cc.respCh <- frame{op: opOK, id: req.id, done: release}
}

// handleStream answers opGetBlkStream: a header frame, the payload cut
// into sequenced chunks, and an end frame carrying the chunk count.
func (s *Server) handleStream(req frame, respCh chan<- frame) {
	reply := func(op byte, parts ...[]byte) {
		respCh <- frame{op: op, id: req.id, parts: parts}
	}
	if len(req.parts) != 1 {
		reply(opErr, []byte("getblkstream: want [name]"))
		return
	}
	name := string(req.parts[0])
	blk, ok := s.lookupBlock(name)
	if !ok {
		reply(opErrNotFound, []byte(fmt.Sprintf("getblkstream: no block %q", name)))
		return
	}
	if int64(len(blk.Payload)) > maxStreamBytes {
		reply(opErr, []byte(fmt.Sprintf("getblkstream: block of %d bytes exceeds the stream limit", len(blk.Payload))))
		return
	}
	descText, err := s.descriptorText(blk)
	if err != nil {
		reply(opErr, []byte(fmt.Sprintf("getblkstream: descriptor: %v", err)))
		return
	}
	size := make([]byte, 8)
	binary.BigEndian.PutUint64(size, uint64(len(blk.Payload)))
	reply(opStreamHdr, []byte(blk.Name), []byte(blk.Medium.String()), descText, size)
	var seq uint32
	for off := 0; off < len(blk.Payload); off += streamChunkSize {
		end := off + streamChunkSize
		if end > len(blk.Payload) {
			end = len(blk.Payload)
		}
		seqBuf := make([]byte, 4)
		binary.BigEndian.PutUint32(seqBuf, seq)
		reply(opStreamChunk, seqBuf, blk.Payload[off:end])
		seq++
	}
	count := make([]byte, 4)
	binary.BigEndian.PutUint32(count, seq)
	reply(opStreamEnd, count)
}

// handle executes one request — its op and argument parts — returning
// the response op and parts.
func (s *Server) handle(op byte, args [][]byte) (byte, [][]byte) {
	fail := func(format string, args ...interface{}) (byte, [][]byte) {
		return opErr, [][]byte{[]byte(fmt.Sprintf(format, args...))}
	}
	notFound := func(format string, args ...interface{}) (byte, [][]byte) {
		return opErrNotFound, [][]byte{[]byte(fmt.Sprintf(format, args...))}
	}
	switch op {
	case opGetDoc:
		if len(args) != 3 || len(args[1]) != 1 || len(args[2]) != 1 {
			return fail("getdoc: want [name, encoding, inline]")
		}
		name := string(args[0])
		doc, ok := s.reg.GetDoc(name)
		if !ok && s.Loader != nil && s.Loader.LoadDoc(name) {
			doc, ok = s.reg.GetDoc(name)
		}
		if !ok && s.Cluster != nil {
			doc, ok = s.Cluster.MissingDoc(name)
		}
		if !ok {
			return notFound("getdoc: no document %q", name)
		}
		if args[2][0] == 1 {
			inlined, err := Inline(doc, s.reg.Store, false)
			if err != nil {
				return fail("getdoc: inline: %v", err)
			}
			doc = inlined
		}
		data, err := encodeDoc(doc, Encoding(args[1][0]))
		if err != nil {
			return fail("getdoc: %v", err)
		}
		return opOK, [][]byte{data}
	case opPutDoc:
		if len(args) != 3 || len(args[1]) != 1 {
			return fail("putdoc: want [name, encoding, document]")
		}
		doc, err := decodeDoc(args[2], Encoding(args[1][0]))
		if err != nil {
			return fail("putdoc: %v", err)
		}
		if s.Loader != nil {
			// A proxy never registers documents itself: the origin is the
			// single writer, and its accepted registration streams back
			// down through the proxy's upstream subscription.
			if err := s.Loader.ForwardPutDoc(string(args[0]), doc); err != nil {
				return fail("putdoc: upstream: %v", err)
			}
			return opOK, nil
		}
		if s.Cluster != nil {
			// The cluster handler extracts inlined payloads itself (each
			// block routes to its own replica set, not this node's store).
			if err := s.Cluster.PutDoc(string(args[0]), doc); err != nil {
				return fail("putdoc: %v", err)
			}
			return opOK, nil
		}
		// Absorb any inlined payloads into the local store.
		extracted, err := Extract(doc, s.reg.Store)
		if err != nil {
			return fail("putdoc: extract: %v", err)
		}
		s.reg.PutDoc(string(args[0]), extracted)
		if err := s.durabilityErr(); err != nil {
			return fail("putdoc: durability: %v", err)
		}
		return opOK, nil
	case opSubmitEdit:
		if len(args) != 2 {
			return fail("submitedit: want [name, records]")
		}
		recs, err := core.DecodeChangeRecords(args[1])
		if err != nil {
			return fail("submitedit: %v", err)
		}
		name := string(args[0])
		if s.Loader != nil {
			gen, err := s.Loader.ForwardEdit(name, recs)
			switch {
			case errors.Is(err, ErrNotFound):
				return notFound("submitedit: no document %q", name)
			case err != nil:
				// A conflict's "conflict:" text survives the relay, so
				// downstream clients still classify it as ErrConflict.
				return fail("submitedit: %v", err)
			}
			return opOK, [][]byte{u64be(gen)}
		}
		if s.Cluster != nil {
			gen, err := s.Cluster.SubmitEdit(name, recs)
			switch {
			case errors.Is(err, ErrNotFound):
				return notFound("submitedit: no document %q", name)
			case err != nil:
				// A conflict's "conflict:" text survives the relay, so
				// clients still classify it as ErrConflict.
				return fail("submitedit: %v", err)
			}
			return opOK, [][]byte{u64be(gen)}
		}
		gen, err := s.reg.EditDoc(name, recs)
		if errors.Is(err, errUnknownDoc) {
			return notFound("submitedit: no document %q", name)
		}
		if err != nil {
			// Typically a conflict: an earlier writer's edit won the
			// registry lock and this batch's pre-edit paths no longer
			// resolve. Nothing was applied; the submitter refetches.
			return fail("submitedit: %v", err)
		}
		if err := s.durabilityErr(); err != nil {
			return fail("submitedit: durability: %v", err)
		}
		return opOK, [][]byte{u64be(gen)}
	case opGetBlk:
		if len(args) != 1 {
			return fail("getblk: want [name]")
		}
		name := string(args[0])
		blk, ok := s.lookupBlock(name)
		if !ok {
			return notFound("getblk: no block %q", name)
		}
		// A payload past the frame limit cannot travel as one response.
		// Answer opErrTooLarge instead of dying on the write; clients
		// retry with the chunked stream.
		if len(blk.Payload) > maxFrameSize-(1<<16) {
			return opErrTooLarge, [][]byte{[]byte(fmt.Sprintf(
				"getblk: block of %d bytes exceeds the frame limit; use the chunked stream", len(blk.Payload)))}
		}
		descText, err := s.descriptorText(blk)
		if err != nil {
			return fail("getblk: descriptor: %v", err)
		}
		return opOK, [][]byte{
			[]byte(blk.Name),
			[]byte(blk.Medium.String()),
			descText,
			blk.Payload,
		}
	case opGetBlks:
		if len(args) == 0 {
			return fail("getblks: want at least one name")
		}
		parts := make([][]byte, len(args))
		inlined := 0
		for i, p := range args {
			blk, ok := s.lookupBlock(string(p))
			if !ok {
				parts[i] = []byte{entryMissing}
				continue
			}
			// Defer blocks that would push the response past the frame
			// limit; the client re-fetches them one at a time.
			if inlined+len(blk.Payload) > batchBudget {
				parts[i] = []byte{entryDeferred}
				continue
			}
			descText, err := s.descriptorText(blk)
			if err != nil {
				return fail("getblks: descriptor: %v", err)
			}
			parts[i] = encodeEntry(
				[]byte(blk.Name),
				[]byte(blk.Medium.String()),
				descText,
				blk.Payload,
			)
			inlined += len(blk.Payload)
		}
		return opOK, parts
	case opGetBlkManifest:
		if len(args) != 1 {
			return fail("getblkmanifest: want [name]")
		}
		name := string(args[0])
		blk, ok := s.lookupBlock(name)
		if !ok {
			return notFound("getblkmanifest: no block %q", name)
		}
		descText, err := s.descriptorText(blk)
		if err != nil {
			return fail("getblkmanifest: descriptor: %v", err)
		}
		// An empty manifest (block below the chunk threshold, or served
		// through a loader/cluster miss with no local index) tells the
		// client to fall back to a plain fetch.
		var manifest []byte
		if hashes, ok := s.reg.Store.Manifest(blk.ID); ok {
			manifest = make([]byte, 0, len(hashes)*(chunker.HashSize+4))
			for _, h := range hashes {
				chunk, ok := s.reg.Store.GetChunk(h)
				if !ok {
					// Index shifting under a concurrent delete; punt to
					// the plain path rather than serve a torn manifest.
					manifest = nil
					break
				}
				manifest = append(manifest, h[:]...)
				manifest = binary.BigEndian.AppendUint32(manifest, uint32(len(chunk)))
			}
		}
		return opOK, [][]byte{
			[]byte(blk.Name),
			[]byte(blk.Medium.String()),
			descText,
			[]byte(blk.ID),
			u64be(uint64(len(blk.Payload))),
			manifest,
		}
	case opGetChunks:
		if len(args) == 0 {
			return fail("getchunks: want at least one hash")
		}
		parts := make([][]byte, len(args))
		for i, p := range args {
			if len(p) != chunker.HashSize {
				return fail("getchunks: hash %d has %d bytes, want %d", i, len(p), chunker.HashSize)
			}
			var h media.ChunkHash
			copy(h[:], p)
			if data, ok := s.reg.Store.GetChunk(h); ok {
				parts[i] = encodeEntry(data)
			} else {
				parts[i] = []byte{entryMissing}
			}
		}
		return opOK, parts
	case opGetDescs:
		if len(args) == 0 {
			return fail("getdescs: want at least one name")
		}
		parts := make([][]byte, len(args))
		for i, p := range args {
			blk, ok := s.lookupBlock(string(p))
			if !ok {
				parts[i] = []byte{entryMissing}
				continue
			}
			descText, err := s.descriptorText(blk)
			if err != nil {
				return fail("getdescs: descriptor: %v", err)
			}
			parts[i] = encodeEntry([]byte(blk.Name), descText)
		}
		return opOK, parts
	case opPutBlk:
		if len(args) != 4 {
			return fail("putblk: want [name, medium, descriptor, payload]")
		}
		blk, err := blockFromParts(args, nil)
		if err != nil {
			return fail("putblk: %v", err)
		}
		if s.Loader != nil {
			id, err := s.Loader.ForwardPutBlock(blk)
			if err != nil {
				return fail("putblk: upstream: %v", err)
			}
			return opOK, [][]byte{[]byte(id)}
		}
		if s.Cluster != nil {
			id, err := s.Cluster.PutBlock(blk)
			if err != nil {
				return fail("putblk: %v", err)
			}
			return opOK, [][]byte{[]byte(id)}
		}
		s.reg.Store.Put(blk)
		if err := s.durabilityErr(); err != nil {
			return fail("putblk: durability: %v", err)
		}
		return opOK, [][]byte{[]byte(blk.ID)}
	case opList:
		// listScopeLocal restricts the answer to locally held documents;
		// cluster nodes use it when merging peers' listings, so the
		// fan-out cannot recurse.
		localOnly := len(args) == 1 && string(args[0]) == string(listScopeLocal)
		if s.Loader != nil && !localOnly {
			if names, err := s.Loader.ListDocs(); err == nil {
				parts := make([][]byte, len(names))
				for i, n := range names {
					parts[i] = []byte(n)
				}
				return opOK, parts
			}
			// Upstream unreachable: fall back to what is cached locally.
		}
		if s.Cluster != nil && !localOnly {
			if names, err := s.Cluster.DocNames(); err == nil {
				parts := make([][]byte, len(names))
				for i, n := range names {
					parts[i] = []byte(n)
				}
				return opOK, parts
			}
			// Peers unreachable: fall back to the local listing.
		}
		names := s.reg.DocNames()
		parts := make([][]byte, len(names))
		for i, n := range names {
			parts[i] = []byte(n)
		}
		return opOK, parts
	case opGossip:
		if s.Cluster == nil {
			return fail("gossip: not a cluster node")
		}
		if len(args) > 1 {
			return fail("gossip: want [view]")
		}
		var view []byte
		if len(args) == 1 {
			view = args[0]
		}
		local, err := s.Cluster.Gossip(view)
		if err != nil {
			return fail("gossip: %v", err)
		}
		return opOK, [][]byte{local}
	case opReplicate:
		if s.Cluster == nil {
			return fail("replicate: not a cluster node")
		}
		if len(args) != 1 {
			return fail("replicate: want [frames]")
		}
		if err := s.Cluster.Replicate(args[0]); err != nil {
			return fail("replicate: %v", err)
		}
		return opOK, nil
	case opResync:
		if s.Cluster == nil {
			return fail("resync: not a cluster node")
		}
		if len(args) != 1 {
			return fail("resync: want [cursor]")
		}
		frames, next, err := s.Cluster.Resync(string(args[0]))
		if err != nil {
			return fail("resync: %v", err)
		}
		return opOK, [][]byte{frames, []byte(next)}
	default:
		return fail("unknown op %d", op)
	}
}

// durabilityErr reports a failed durability layer. A write that reached
// memory but not the log must not be acknowledged: the client would treat
// it as durable, and a restart would disprove that.
func (s *Server) durabilityErr() error {
	if s.reg.DurabilityErr == nil {
		return nil
	}
	return s.reg.DurabilityErr()
}

// lookupBlock resolves a block by registered name first, then by content
// address — the resolution order every block-fetch op shares. A miss
// consults the Loader when one is attached (the edge read-through path).
// Local hits return the store's own immutable block without cloning
// (media.Store.GetRef): response parts reference the stored — possibly
// mmap-backed — payload directly, and the vectored writer moves it
// store → conn with no intermediate copy. Handlers only read the
// returned block.
func (s *Server) lookupBlock(name string) (*media.Block, bool) {
	if blk, ok := s.reg.Store.GetByNameRef(name); ok {
		return blk, true
	}
	if blk, ok := s.reg.Store.GetRef(name); ok {
		return blk, true
	}
	if s.Loader != nil {
		return s.Loader.LoadBlock(name)
	}
	if s.Cluster != nil {
		return s.Cluster.MissingBlock(name)
	}
	return nil, false
}

// subscribeDoc registers a watcher on the document under name,
// materializing it through the Loader first when the registry misses —
// an edge's downstream subscribers lease documents into the edge on
// demand.
func (s *Server) subscribeDoc(name, subtree string) (*subscriber, error) {
	sub, err := s.reg.subscribe(name, s.SubQueueCap, s.Admission.MaxSubscribers, subtree)
	if errors.Is(err, errUnknownDoc) && s.Loader != nil && s.Loader.LoadDoc(name) {
		sub, err = s.reg.subscribe(name, s.SubQueueCap, s.Admission.MaxSubscribers, subtree)
	}
	return sub, err
}

// descriptorText returns the block's wire-encoded descriptor, memoized
// by content address. The returned bytes are shared: read-only.
func (s *Server) descriptorText(blk *media.Block) ([]byte, error) {
	if text, ok := s.descCache.Load(blk.ID); ok {
		s.Metrics.descCacheLookup(true)
		return text.([]byte), nil
	}
	s.Metrics.descCacheLookup(false)
	text, err := codec.EncodeNode(descriptorNode(blk), codec.WriteOptions{Form: codec.Embedded})
	if err != nil {
		return nil, err
	}
	s.descCache.Store(blk.ID, []byte(text))
	return []byte(text), nil
}

func encodeDoc(d *core.Document, enc Encoding) ([]byte, error) {
	switch enc {
	case EncodingText:
		s, err := codec.Encode(d, codec.WriteOptions{Form: codec.Conventional})
		return []byte(s), err
	case EncodingBinary:
		return codec.EncodeBinary(d)
	default:
		return nil, fmt.Errorf("unknown encoding %q", byte(enc))
	}
}

func decodeDoc(data []byte, enc Encoding) (*core.Document, error) {
	switch enc {
	case EncodingText:
		return codec.Parse(string(data))
	case EncodingBinary:
		return codec.DecodeBinary(data)
	default:
		return nil, fmt.Errorf("unknown encoding %q", byte(enc))
	}
}

// descriptorNode wraps a block descriptor as a CMIF fragment for the wire.
func descriptorNode(b *media.Block) *core.Node {
	n := core.NewExt()
	for _, p := range b.Descriptor.Pairs() {
		n.Attrs.Set(p.Name, p.Value)
	}
	return n
}

// blockFromParts rebuilds a block from putblk/getblk wire parts,
// parsing the descriptor through descs (nil parses afresh). The
// block's payload is parts[3] itself: a frame body is allocated per
// frame, so a caller only copies when it must not pin the rest of it.
func blockFromParts(parts [][]byte, descs *descriptorMemo) (*media.Block, error) {
	medium, err := core.ParseMedium(string(parts[1]))
	if err != nil {
		return nil, err
	}
	desc, err := descs.parse(parts[2])
	if err != nil {
		return nil, fmt.Errorf("descriptor: %w", err)
	}
	return media.NewBlock(string(parts[0]), medium, parts[3], desc), nil
}

// maxDescMemo bounds a descriptorMemo; a full memo starts over.
const maxDescMemo = 1024

// descriptorMemo caches parsed block descriptors by their wire text.
// A server memoizes each block's descriptor text by content address
// (Server.descriptorText), so repeat fetches carry byte-identical text
// and a client need parse each distinct descriptor once. Cached lists
// are shared and read-only: media.NewBlock clones what it keeps.
type descriptorMemo struct {
	mu sync.RWMutex
	m  map[string]attr.List
}

// parse returns the attributes of a wire descriptor. A nil memo parses
// without caching.
func (d *descriptorMemo) parse(text []byte) (attr.List, error) {
	if d != nil {
		d.mu.RLock()
		desc, ok := d.m[string(text)]
		d.mu.RUnlock()
		if ok {
			return desc, nil
		}
	}
	node, err := codec.ParseNode(string(text))
	if err != nil {
		return attr.List{}, err
	}
	if d != nil {
		d.mu.Lock()
		if len(d.m) >= maxDescMemo || d.m == nil {
			d.m = make(map[string]attr.List)
		}
		d.m[string(text)] = node.Attrs
		d.mu.Unlock()
	}
	return node.Attrs, nil
}

// ErrRemote wraps a server-reported error.
var ErrRemote = errors.New("transport: remote error")
