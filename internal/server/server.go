package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"pstore/internal/cluster"
	"pstore/internal/engine"
	"pstore/internal/migration"
	"pstore/internal/replication"
)

// Server serves a cluster over TCP.
type Server struct {
	c        *cluster.Cluster
	mig      migration.Options
	lis      net.Listener
	logf     func(format string, args ...any)
	connWrap func(net.Conn) net.Conn

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	scaling bool
}

// New wraps a cluster with a TCP front end. mig configures scale requests'
// migration rate. logf may be nil to silence logging.
func New(c *cluster.Cluster, mig migration.Options, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{c: c, mig: mig, logf: logf, conns: make(map[net.Conn]struct{})}
}

// WrapConns installs a wrapper applied to every accepted connection — the
// hook the fault injector uses to chaos-test the wire without the server
// knowing. Must be called before Listen.
func (s *Server) WrapConns(wrap func(net.Conn) net.Conn) { s.connWrap = wrap }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:7070") and
// returns the bound address (useful with port 0).
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	go s.acceptLoop(lis)
	return lis.Addr().String(), nil
}

// Close stops the listener and all connections. The underlying cluster is
// not stopped (the owner controls its lifecycle).
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	return err
}

func (s *Server) acceptLoop(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true) // batching supplies the coalescing; don't add Nagle delay
		}
		if s.connWrap != nil {
			conn = s.connWrap(conn)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// reqPool recycles decoded requests (and their Args maps) across frames.
var reqPool = sync.Pool{New: func() any { return new(Request) }}

// serveConn decodes frames as fast as they arrive. Work that needs no
// waiting — pings, reads a standby can answer right now — runs to completion
// on this loop and its replies are flushed when the loop is about to block
// (see deferredReplies); transactions go straight to the executors, whose
// completion path encodes the reply; only a read that has to wait is handed
// to another goroutine. Replies are written back in completion order through
// a batching writer, so many of them coalesce into few syscalls.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	w := newReplyWriter(conn)
	inline := &deferredReplies{conn: conn, w: w}
	br := bufio.NewReaderSize(inline, 64<<10)
	runner := newCallRunner(s, w)
	defer w.stop()
	defer runner.wg.Wait()
	defer close(runner.ch)
	var frame []byte
	for {
		payload, err := readFrame(br, &frame)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				s.logf("pstore-server: connection closed: %v", err)
			}
			return
		}
		req := reqPool.Get().(*Request)
		clear(req.Args)
		clear(req.Session)
		if err := decodeRequest(payload, req); err != nil {
			s.logf("pstore-server: bad frame: %v", err)
			return
		}
		switch req.Kind {
		case KindPing:
			inline.reply(&Response{ID: req.ID})
			reqPool.Put(req)
		case KindCall:
			// Transactions dispatch straight from the read loop: the
			// executor's completion path encodes the reply, so no
			// per-in-flight-call goroutine exists to wake.
			s.dispatchCall(req, w)
		case KindRead:
			// A read that would wait (replica behind the session, primary
			// fallback) must never run here: it would block every request
			// queued behind it on this connection.
			if res, ok := s.c.TryReadOnly(req.Proc, req.Key, req.Args, req.Session); ok {
				resp := s.resultResponse(req.ID, res)
				inline.reply(&resp)
				reqPool.Put(req)
			} else {
				runner.dispatch(req)
			}
		default:
			runner.wg.Add(1)
			go func() {
				defer runner.wg.Done()
				resp := s.handleSlow(req)
				w.reply(&resp)
				reqPool.Put(req)
			}()
		}
	}
}

// deferredReplies sits between a connection and its bufio.Reader and holds
// the read loop's flush-before-block rule. Replies the loop produces itself
// are appended to the replyWriter without waking the flusher; bufio calls
// Read only when its buffer has run dry, which is when the loop is about to
// wait on the socket and therefore when they must go out. A burst of
// pipelined requests is thus answered in one write, a lone request on an
// idle connection is flushed before the loop waits for the next, and the
// added delay is bounded by one read buffer of requests. Replies completed
// on other goroutines (executor, group commit, callRunner) wake the flusher
// themselves and carry along whatever is buffered. Read-loop goroutine only.
type deferredReplies struct {
	conn    net.Conn
	w       *replyWriter
	pending bool
}

func (d *deferredReplies) Read(p []byte) (int, error) {
	if d.pending {
		d.pending = false
		d.w.kick()
	}
	return d.conn.Read(p)
}

func (d *deferredReplies) reply(resp *Response) {
	d.w.append(resp)
	d.pending = true
}

// callRunner is the one off-loop path for reads: session reads that have to
// wait park on a self-sizing pool of per-connection worker goroutines.
// Workers are reused across requests, so a run of them pays no goroutine
// spawn (and no stack re-growth — the primary-fallback call stack runs deep
// through cluster routing and the executor).
type callRunner struct {
	s    *Server
	w    *replyWriter
	ch   chan *Request
	wg   sync.WaitGroup
	idle atomic.Int64
}

func newCallRunner(s *Server, w *replyWriter) *callRunner {
	// The buffer lets the read loop run ahead of a burst of waiting reads
	// while workers spin up; past it the loop blocks, which is the
	// connection's backpressure.
	return &callRunner{s: s, w: w, ch: make(chan *Request, 256)}
}

// dispatch hands req to an idle worker, growing the pool when none is
// waiting. The idle count is advisory — a lost race spawns one extra
// worker that simply parks on the channel.
func (r *callRunner) dispatch(req *Request) {
	if r.idle.Load() == 0 {
		r.wg.Add(1)
		go r.worker()
	}
	r.ch <- req
}

func (r *callRunner) worker() {
	defer r.wg.Done()
	r.idle.Add(1)
	for req := range r.ch {
		r.idle.Add(-1)
		resp := r.s.resultResponse(req.ID, r.s.c.CallReadOnly(req.Proc, req.Key, req.Args, req.Session))
		r.w.reply(&resp)
		reqPool.Put(req)
		r.idle.Add(1)
	}
	r.idle.Add(-1)
}

// callCompletion carries one asynchronous transaction through the
// executor's completion path back to its connection's batching writer.
// Pooled so the steady-state call path allocates nothing.
type callCompletion struct {
	s   *Server
	w   *replyWriter
	req *Request
	txn *engine.Txn
}

var callCompletions = sync.Pool{New: func() any { return new(callCompletion) }}

// dispatchCall hands a transaction to the cluster's async call path. The
// reply is encoded by Complete on the executor (or group-commit) goroutine;
// the read loop moves straight on to the next frame.
func (s *Server) dispatchCall(req *Request, w *replyWriter) {
	txn := engine.AcquireTxn(req.Proc, req.Key, req.Args)
	cc := callCompletions.Get().(*callCompletion)
	cc.s, cc.w, cc.req, cc.txn = s, w, req, txn
	s.c.CallAsync(txn, cc)
}

// Complete encodes the transaction's reply into the connection's batch
// buffer. It is bounded — appendResponse under a mutex plus a non-blocking
// wake — which is what the engine.Completion contract requires of code
// running on the executor goroutine.
func (cc *callCompletion) Complete(res engine.Result) {
	s, w, req, txn := cc.s, cc.w, cc.req, cc.txn
	*cc = callCompletion{}
	callCompletions.Put(cc)
	resp := s.resultResponse(req.ID, res)
	w.reply(&resp) // encodes Out before the txn (which owns it) is released
	txn.Release()
	reqPool.Put(req)
}

// resultResponse maps a routed call's or read's outcome onto its wire reply.
func (s *Server) resultResponse(id uint64, res engine.Result) Response {
	resp := Response{ID: id, Out: res.Out, Latency: res.Latency,
		Routed: true, Part: res.Partition, LSN: res.LSN}
	if res.Err != nil {
		resp.Err = res.Err.Error()
		resp.Abort = engine.IsAbort(res.Err)
		if errors.Is(res.Err, engine.ErrOverloaded) {
			// Shed before execution: tell the client it is safe to retry,
			// and when.
			resp.Busy = true
			resp.RetryAfter = s.c.ShedRetryAfter()
		} else if errors.Is(res.Err, replication.ErrQuorumLost) || errors.Is(res.Err, replication.ErrFenced) {
			// Shed pre-execution by the primary's self-fencing gate: safe to
			// retry once the monitor restores quorum or promotes a successor.
			resp.Busy = true
			resp.RetryAfter = s.c.FenceRetryAfter()
		}
	}
	return resp
}

// handleSlow serves the rare non-transactional kinds.
func (s *Server) handleSlow(req *Request) Response {
	resp := Response{ID: req.ID}
	switch req.Kind {
	case KindScale:
		resp.Err = s.scale(req.TargetNodes)
	case KindStats:
		resp.Stats = s.stats()
	case KindKillNode:
		if err := s.c.KillNode(req.Node); err != nil {
			resp.Err = err.Error()
		} else {
			s.logf("pstore-server: node %d killed (chaos)", req.Node)
		}
	default:
		resp.Err = fmt.Sprintf("pstore-server: unknown request kind %q", req.Kind)
	}
	return resp
}

// scale runs a reconfiguration; concurrent scale requests are rejected.
func (s *Server) scale(target int) string {
	s.mu.Lock()
	if s.scaling {
		s.mu.Unlock()
		return "pstore-server: a reconfiguration is already in progress"
	}
	s.scaling = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.scaling = false
		s.mu.Unlock()
	}()
	rep, err := migration.Run(s.c, target, s.mig)
	if err != nil {
		return err.Error()
	}
	s.logf("pstore-server: scaled %d→%d in %v (%d buckets, %d rows)",
		rep.FromNodes, rep.ToNodes, rep.Duration, rep.BucketsMoved, rep.RowsMoved)
	return ""
}

func (s *Server) stats() *Stats {
	rows, err := s.c.TotalRows()
	if err != nil {
		log.Printf("pstore-server: counting rows: %v", err)
	}
	st := &Stats{
		Nodes:       s.c.NumNodes(),
		Partitions:  s.c.NumNodes() * s.c.PartitionsPerNode(),
		TotalRows:   rows,
		OfferedTxns: s.c.OfferedLoad().Total(),
	}
	if ws := s.c.Latencies().Windows(); len(ws) > 0 {
		st.P99 = ws[len(ws)-1].P99
	}
	rs := s.c.ReplicationStats()
	st.ReplFactor = rs.Factor
	st.ReplReplicas = rs.Replicas
	st.ReplMaxLag = rs.MaxLagRecords
	st.ReplRecords = int(rs.Records)
	st.ReplFailovers = int(rs.Failovers)
	st.ReplPromotions = int(rs.Promotions)
	st.ReplResyncs = int(rs.Resyncs)
	st.ReplStaleWaits = int(rs.StaleWaits)
	st.ReplReplicaReads = int(rs.ReplicaReads)
	st.ReplFallbackReads = int(rs.FallbackReads)
	st.DeadNodes = len(s.c.DeadNodes())
	st.ReplFencedWrites = int(rs.FencedWrites)
	st.ReplQuorumLosses = int(rs.QuorumLosses)
	st.ReplQuorumLostWrites = int(rs.QuorumLostWrites)
	st.ReplPromotionsBlocked = int(rs.PromotionsBlocked)
	st.ReplStaleDemotions = int(rs.StaleDemotions)
	return st
}

// replyWriter batches response frames: completions append under a mutex
// and a single flusher goroutine writes whatever accumulated in one
// syscall, mirroring the client's write batching.
type replyWriter struct {
	conn net.Conn
	wake chan struct{}
	done chan struct{}
	quit chan struct{}

	mu    sync.Mutex
	buf   []byte
	spare []byte
	err   error
}

func newReplyWriter(conn net.Conn) *replyWriter {
	w := &replyWriter{
		conn: conn,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
		quit: make(chan struct{}),
	}
	go w.loop()
	return w
}

// reply encodes resp into the batch buffer and nudges the flusher.
func (w *replyWriter) reply(resp *Response) {
	w.append(resp)
	w.kick()
}

// append encodes resp into the batch buffer. After a write error the
// connection is dead; frames are dropped.
func (w *replyWriter) append(resp *Response) {
	w.mu.Lock()
	if w.err == nil {
		w.buf = appendResponse(w.buf, resp)
	}
	w.mu.Unlock()
}

// kick wakes the flusher; a no-op when a wake is already pending.
func (w *replyWriter) kick() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *replyWriter) loop() {
	defer close(w.done)
	for {
		select {
		case <-w.quit:
			w.flush() // drain frames buffered before stop
			return
		case <-w.wake:
		}
		if !w.flush() {
			return
		}
	}
}

// flush writes everything buffered in one syscall; false means the
// connection failed.
func (w *replyWriter) flush() bool {
	w.mu.Lock()
	buf := w.buf
	w.buf = w.spare[:0]
	w.spare = nil
	w.mu.Unlock()
	if len(buf) > 0 {
		if _, err := w.conn.Write(buf); err != nil {
			w.mu.Lock()
			w.err = err
			w.mu.Unlock()
			w.conn.Close()
			return false
		}
	}
	w.mu.Lock()
	if w.spare == nil {
		w.spare = buf[:0]
	}
	w.mu.Unlock()
	return true
}

// stop terminates the flusher after draining anything already buffered.
func (w *replyWriter) stop() {
	close(w.quit)
	<-w.done
}
