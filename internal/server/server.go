package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"afraid/internal/bufpool"
	"afraid/internal/core"
	"afraid/internal/obs"
)

// Backend is what the service needs from a store. *core.Store satisfies
// it; tests substitute gated fakes to force timeouts and backpressure.
type Backend interface {
	ReadContext(ctx context.Context, p []byte, off int64) (int, error)
	WriteContext(ctx context.Context, p []byte, off int64) (int, error)
	FlushContext(ctx context.Context) error
	ParityPointContext(ctx context.Context, off, length int64) error
	Capacity() int64
	DirtyStripes() int64
	// AppendStats appends the store's named counters, layer-prefixed,
	// for STAT.
	AppendStats(dst []obs.Field) []obs.Field
}

// serverStats is the server's own part of the STAT snapshot, published
// under the "server." prefix.
type serverStats struct {
	Capacity                     int64
	ReadP50, ReadP95, ReadP99    time.Duration
	WriteP50, WriteP95, WriteP99 time.Duration
}

// Options configures a Server. The zero value picks sensible defaults.
type Options struct {
	// Workers bounds the goroutines applying requests to the store
	// (default 2×GOMAXPROCS, min 4). The store's 64-way stripe lock
	// pool is what they contend on.
	Workers int
	// MaxInflight bounds accepted-but-unfinished requests across all
	// connections (default 256). Beyond it the server answers
	// ERR_BUSY instead of buffering without bound.
	MaxInflight int
	// MaxPayload bounds one frame's data (default DefaultMaxPayload).
	MaxPayload uint32
	// RequestTimeout is the per-request deadline (default 30s); it
	// cancels store work mid-request via context.
	RequestTimeout time.Duration
	// WriteTimeout bounds each socket write of response frames
	// (default 30s). A client that pipelines requests but stops
	// reading responses would otherwise block the connection's writer,
	// fill its response queue, and wedge pool workers in send; on
	// expiry the connection is closed instead.
	WriteTimeout time.Duration
	// CoalesceLimit caps the bytes merged from adjacent pipelined
	// WRITEs into one store call (default 256 KiB; negative disables).
	// Only frames already buffered on the connection are merged, so
	// coalescing never adds latency.
	CoalesceLimit int
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = 2 * runtime.GOMAXPROCS(0)
		if o.Workers < 4 {
			o.Workers = 4
		}
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.MaxPayload == 0 {
		o.MaxPayload = DefaultMaxPayload
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.CoalesceLimit == 0 {
		o.CoalesceLimit = 256 << 10
	}
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// task is one unit of store work: a request plus every frame ID it
// acknowledges (>1 when adjacent writes were coalesced).
type task struct {
	c     *conn
	req   Request
	ids   []uint64
	start time.Time
}

// Server serves the block protocol over accepted connections.
type Server struct {
	store   Backend
	opts    Options
	metrics *Metrics

	tasks  chan *task
	tokens chan struct{} // in-flight semaphore; acquired before enqueue

	baseCtx context.Context // cancelled on hard close
	cancel  context.CancelFunc

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	draining  bool

	connWG    sync.WaitGroup
	workerWG  sync.WaitGroup
	closeOnce sync.Once
}

// New builds a server over the store and starts its worker pool.
func New(store Backend, opts Options) *Server {
	opts.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:     store,
		opts:      opts,
		metrics:   newMetrics(store.DirtyStripes),
		tasks:     make(chan *task, opts.MaxInflight),
		tokens:    make(chan struct{}, opts.MaxInflight),
		baseCtx:   ctx,
		cancel:    cancel,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
	for i := 0; i < opts.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the server's metric tree.
func (s *Server) Metrics() *Metrics { return s.metrics }

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections until the listener fails or the server is
// shut down, then returns ErrServerClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, lis)
		s.mu.Unlock()
	}()
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		c := s.newConn(nc)
		if c == nil {
			nc.Close()
			continue
		}
		go c.serve()
	}
}

// newConn registers a connection, or rejects it when draining.
func (s *Server) newConn(nc net.Conn) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	c := &conn{
		srv:  s,
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 64<<10),
		out:  make(chan Response, 64),
		done: make(chan struct{}),
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.metrics.ConnsOpen.Add(1)
	s.metrics.ConnsTotal.Add(1)
	return c
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.metrics.ConnsOpen.Add(-1)
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Shutdown drains gracefully: stop accepting, unblock connection
// readers at the next frame boundary, finish every in-flight request,
// flush its response, then close. If ctx expires first, connections and
// outstanding store work are cancelled hard and ctx's error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	listeners := make([]net.Listener, 0, len(s.listeners))
	for lis := range s.listeners {
		listeners = append(listeners, lis)
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if first {
		for _, lis := range listeners {
			lis.Close()
		}
		for _, c := range conns {
			// Unblocks the reader; responses still flow until the
			// connection's in-flight work has been answered.
			c.nc.SetReadDeadline(time.Now())
		}
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		s.closeOnce.Do(func() { close(s.tasks) })
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // cancel in-store work
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close shuts down immediately, cancelling in-flight work.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}

// worker applies tasks to the store until the task channel closes.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.tasks {
		s.execute(t)
	}
}

func (s *Server) execute(t *task) {
	queued := time.Since(t.start) // dispatch -> worker pickup
	ctx, cancel := context.WithTimeout(s.baseCtx, s.opts.RequestTimeout)
	resp := s.apply(ctx, &t.req)
	cancel()
	d := time.Since(t.start)
	s.metrics.task(&t.req, resp.Status, queued, d)
	for _, id := range t.ids {
		r := resp
		r.ID = id
		s.metrics.response(r.Op, r.Status, d)
		t.c.send(r)
	}
	s.metrics.Inflight.Add(-1)
	<-s.tokens
	t.c.pending.Done()
}

// rangeOK reports whether [off, off+length) lies within capacity,
// without computing off+length (which overflows for off near MaxInt64
// — DecodeRequest admits any offset up to MaxInt64).
func rangeOK(off, length, capacity int64) bool {
	return off >= 0 && length >= 0 && length <= capacity && off <= capacity-length
}

// apply performs one request against the store.
func (s *Server) apply(ctx context.Context, r *Request) Response {
	resp := Response{Op: r.Op, Status: StatusOK}
	cap := s.store.Capacity()
	switch r.Op {
	case OpRead:
		if !rangeOK(r.Off, int64(r.Length), cap) {
			return s.reject(resp, cap, r)
		}
		// Read payloads are the server's hottest allocation; borrow the
		// buffer from the pool and let the connection writer return it
		// once the response frame is on the wire.
		buf := bufpool.Get(int(r.Length))
		if _, err := s.store.ReadContext(ctx, buf, r.Off); err != nil {
			bufpool.Put(buf)
			return s.fail(resp, err)
		}
		resp.Data = buf
		resp.pooled = true
		s.metrics.BytesRead.Add(int64(r.Length))
	case OpWrite:
		if !rangeOK(r.Off, int64(len(r.Data)), cap) {
			return s.reject(resp, cap, r)
		}
		if _, err := s.store.WriteContext(ctx, r.Data, r.Off); err != nil {
			return s.fail(resp, err)
		}
		s.metrics.BytesWritten.Add(int64(len(r.Data)))
	case OpFlush:
		if err := s.store.FlushContext(ctx); err != nil {
			return s.fail(resp, err)
		}
	case OpScrub:
		if !rangeOK(r.Off, int64(r.Length), cap) {
			return s.reject(resp, cap, r)
		}
		if err := s.store.ParityPointContext(ctx, r.Off, int64(r.Length)); err != nil {
			return s.fail(resp, err)
		}
	case OpStat:
		rl, wl := s.metrics.OpLatency(OpRead), s.metrics.OpLatency(OpWrite)
		own := serverStats{
			Capacity: cap,
			ReadP50:  rl.Quantile(0.50), ReadP95: rl.Quantile(0.95), ReadP99: rl.Quantile(0.99),
			WriteP50: wl.Quantile(0.50), WriteP95: wl.Quantile(0.95), WriteP99: wl.Quantile(0.99),
		}
		resp.Data = appendStat(nil, obs.AppendFields(s.store.AppendStats(nil), "server.", own))
	default:
		resp.Status = StatusBadRequest
		resp.Data = []byte(fmt.Sprintf("unknown op %d", uint8(r.Op)))
	}
	return resp
}

func (s *Server) reject(resp Response, cap int64, r *Request) Response {
	resp.Status = StatusBadRequest
	resp.Data = []byte(fmt.Sprintf("range off=%d length=%d outside capacity %d", r.Off, r.Length, cap))
	return resp
}

// fail maps a store error onto a response status.
func (s *Server) fail(resp Response, err error) Response {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		resp.Status = StatusTimeout
	case errors.Is(err, context.Canceled):
		resp.Status = StatusShutdown
	case errors.Is(err, core.ErrDataLoss):
		resp.Status = StatusDataLoss
	default:
		resp.Status = StatusIO
	}
	resp.Data = []byte(err.Error())
	return resp
}

// conn is one client connection: a reader (this goroutine) feeding the
// shared worker pool and a writer goroutine streaming completions back,
// so responses return in completion order, not issue order.
type conn struct {
	srv     *Server
	nc      net.Conn
	br      *bufio.Reader
	out     chan Response
	done    chan struct{}  // closed when the writer exits
	pending sync.WaitGroup // tasks dispatched and not yet answered
}

// send delivers a response to the writer, dropping it if the writer is
// gone (broken connection).
func (c *conn) send(r Response) {
	select {
	case c.out <- r:
	case <-c.done:
	}
}

func (c *conn) serve() {
	defer c.srv.connWG.Done()
	defer c.srv.removeConn(c)
	defer c.nc.Close()
	if err := c.handshake(); err != nil {
		c.srv.logf("server: %s handshake: %v", c.nc.RemoteAddr(), err)
		close(c.done)
		return
	}
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c.writeLoop()
	}()
	c.readLoop()
	c.pending.Wait() // every dispatched task has queued its response
	close(c.out)     // writer flushes the tail and exits
	writerWG.Wait()
}

// handshake validates the client magic and announces capacity and the
// payload limit.
func (c *conn) handshake() error {
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(c.br, magic); err != nil {
		return err
	}
	if string(magic) != Magic {
		return ErrBadMagic
	}
	c.nc.SetReadDeadline(time.Time{})
	reply := make([]byte, 0, handshakeReplyLen)
	reply = append(reply, Magic...)
	reply = appendUint64(reply, uint64(c.srv.store.Capacity()))
	reply = appendUint32(reply, c.srv.opts.MaxPayload)
	_, err := deadlineWriter{c.nc, c.srv.opts.WriteTimeout}.Write(reply)
	return err
}

// deadlineWriter arms a fresh write deadline before every socket write
// so a stalled client bounds the writer at WriteTimeout instead of
// blocking it (and, through the full response queue, the shared worker
// pool) forever.
type deadlineWriter struct {
	nc      net.Conn
	timeout time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	w.nc.SetWriteDeadline(time.Now().Add(w.timeout))
	return w.nc.Write(p)
}

// readLoop reads frames, applies backpressure, coalesces adjacent
// pipelined writes, and dispatches tasks to the worker pool. It returns
// on connection error, protocol error, or drain (read deadline).
func (c *conn) readLoop() {
	s := c.srv
	for {
		req, err := ReadRequest(c.br, s.opts.MaxPayload)
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosing(err) {
				s.logf("server: %s read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		s.metrics.request(req.Op, 1)
		select {
		case s.tokens <- struct{}{}:
		default:
			// In-flight window full: reject instead of buffering.
			s.metrics.BusyRejected.Add(1)
			s.metrics.responses.Add(StatusBusy.String(), 1)
			c.send(Response{Op: req.Op, Status: StatusBusy, ID: req.ID})
			continue
		}
		t := &task{c: c, req: req, ids: []uint64{req.ID}, start: time.Now()}
		if req.Op == OpWrite && s.opts.CoalesceLimit > 0 {
			c.coalesce(t)
		}
		c.pending.Add(1)
		s.metrics.Inflight.Add(1)
		s.tasks <- t
	}
}

// coalesce merges adjacent WRITE frames that the client has already
// pipelined into the connection buffer onto t, turning back-to-back
// sequential 4 KB writes into one store call (one stripe lock trip, one
// parity mark). Each merged frame keeps its own request ID and gets its
// own acknowledgement. Only buffered bytes are examined — never blocks.
func (c *conn) coalesce(t *task) {
	s := c.srv
	for len(t.req.Data) < s.opts.CoalesceLimit {
		if c.br.Buffered() < 4 {
			return
		}
		pfx, err := c.br.Peek(4)
		if err != nil {
			return
		}
		n := int(uint32(pfx[0])<<24 | uint32(pfx[1])<<16 | uint32(pfx[2])<<8 | uint32(pfx[3]))
		if c.br.Buffered() < 4+n {
			return
		}
		frame, err := c.br.Peek(4 + n)
		if err != nil {
			return
		}
		next, err := DecodeRequest(frame[4:], s.opts.MaxPayload)
		if err != nil {
			return // leave it; the main loop will surface the error
		}
		if next.Op != OpWrite || next.Off != t.req.Off+int64(len(t.req.Data)) ||
			len(t.req.Data)+len(next.Data) > s.opts.CoalesceLimit {
			return
		}
		// Copy out of the bufio buffer before discarding it.
		t.req.Data = append(t.req.Data, next.Data...)
		t.req.Length = uint32(len(t.req.Data))
		t.ids = append(t.ids, next.ID)
		c.br.Discard(4 + n)
		s.metrics.request(OpWrite, 1)
		s.metrics.CoalescedWrites.Add(1)
	}
}

// wireSeg is one vector element of a response batch: either a range of
// the batch's header arena (frame headers and inline payloads) or a
// direct reference to a pooled read payload that travels to the socket
// without being recopied. Arena segments are stored as offsets, not
// slices, because the arena may be reallocated by later appends; the
// slices are materialized only when the batch is sealed.
type wireSeg struct {
	start, end int    // arena range; meaningful when data == nil
	data       []byte // pooled payload, written zero-copy
}

// maxResponseBatch bounds the vector elements gathered into one writev
// batch, keeping the arena finite when the queue never goes empty.
const maxResponseBatch = 256

// maxBatchBytes bounds the payload bytes gathered into one writev
// batch. Beyond coalescing efficiency this bounds what one write
// deadline covers: a multi-megabyte batch can be absorbed whole by
// kernel buffer autotuning, letting a stalled reader soak up responses
// that a sequence of bounded writes would have turned into a timeout.
// One response larger than the cap still travels as a single batch.
const maxBatchBytes = 64 << 10

// writeLoop streams responses, gathering everything already queued into
// one scatter-gather socket write (writev on TCP): frame headers and
// small payloads are serialized into a reusable arena, while pooled READ
// payloads are passed to net.Buffers as their own vector elements — the
// hot read path never copies payload bytes into a frame buffer. Each
// batch write carries a deadline: if the client stops reading, the write
// times out and the connection is torn down rather than blocking workers
// behind the full response queue.
func (c *conn) writeLoop() {
	defer close(c.done)
	timeout := c.srv.opts.WriteTimeout
	var (
		arena      []byte
		segs       []wireSeg
		vecs       net.Buffers
		pooled     [][]byte
		batchBytes int
	)
	add := func(resp *Response) {
		batchBytes += respHeaderLen + 4 + len(resp.Data)
		if resp.pooled && len(resp.Data) > 0 {
			start := len(arena)
			arena = appendResponseHeader(arena, resp)
			segs = append(segs, wireSeg{start: start, end: len(arena)}, wireSeg{data: resp.Data})
			pooled = append(pooled, resp.Data)
			return
		}
		start := len(arena)
		arena = AppendResponse(arena, resp)
		if resp.pooled {
			bufpool.Put(resp.Data) // empty payload; serialized inline
		}
		if n := len(segs); n > 0 && segs[n-1].data == nil && segs[n-1].end == start {
			segs[n-1].end = len(arena) // coalesce adjacent arena segments
		} else {
			segs = append(segs, wireSeg{start: start, end: len(arena)})
		}
	}
	// flush seals and writes the batch. net.Buffers.WriteTo consumes the
	// vector and must see the connection itself (not a wrapper) to take
	// the writev path, so the deadline is armed on the conn directly.
	flush := func() bool {
		vecs = vecs[:0]
		for _, sg := range segs {
			if sg.data != nil {
				vecs = append(vecs, sg.data)
			} else {
				vecs = append(vecs, arena[sg.start:sg.end])
			}
		}
		c.nc.SetWriteDeadline(time.Now().Add(timeout))
		_, err := vecs.WriteTo(c.nc)
		for _, b := range pooled {
			bufpool.Put(b) // on the wire (or the conn is dead); done with it
		}
		arena, segs, pooled, batchBytes = arena[:0], segs[:0], pooled[:0], 0
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				c.srv.metrics.WriteTimeouts.Add(1)
			}
			c.nc.Close() // unblock the reader
			return false
		}
		return true
	}
	for resp := range c.out {
		for {
			add(&resp)
			if len(segs) >= maxResponseBatch || batchBytes >= maxBatchBytes {
				if !flush() {
					return
				}
			}
			var ok bool
			select {
			case resp, ok = <-c.out:
				if !ok {
					flush()
					return
				}
				continue
			default:
			}
			if !flush() {
				return
			}
			break
		}
	}
}

// isClosing reports errors expected at teardown: closed sockets and the
// drain deadline.
func isClosing(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
