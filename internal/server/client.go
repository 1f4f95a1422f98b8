package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClientClosed is returned for requests on a Close()d client.
var ErrClientClosed = errors.New("pstore-client: client closed")

// ErrServerBusy is the cause of responses shed by the server's admission
// control: the transaction was NOT executed, so retrying (after the
// attached RetryAfter hint) is always safe.
var ErrServerBusy = errors.New("pstore-client: server busy")

// ErrDisconnected is the cause of requests fast-failed while the client has
// no live connection (reconnect in progress): the request was never sent.
var ErrDisconnected = errors.New("pstore-client: not connected")

// Error is the client's typed error. Callers branch on two facts: whether a
// retry can succeed (Retryable) and whether the request may already have
// executed server-side (MaybeExecuted) — a retryable-but-maybe-executed
// failure (e.g. a deadline expiry with the request on the wire) is safe to
// retry only for idempotent operations. errors.Is sees through to the cause.
type Error struct {
	Op    string // "call", "ping", "scale", "stats"
	Cause error
	// Retryable reports that the failure is transient: a later retry (on
	// this client or another) can succeed.
	Retryable bool
	// MaybeExecuted reports that the server may have executed the request
	// even though no response arrived. False means definitely-not-executed,
	// so even non-idempotent calls can retry blindly.
	MaybeExecuted bool
	// RetryAfter is the server's backoff hint on shed responses; zero
	// otherwise.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("pstore-client: %s: %v", e.Op, e.Cause)
}

func (e *Error) Unwrap() error { return e.Cause }

// IsRetryable reports whether err is a client error marked retryable.
func IsRetryable(err error) bool {
	var ce *Error
	return errors.As(err, &ce) && ce.Retryable
}

// Options tunes a client's robustness behavior. The zero value (used by
// Dial) keeps the legacy semantics: a 30s safety-net deadline, no automatic
// retries, no reconnect.
type Options struct {
	// CallTimeout is the per-attempt deadline applied to Ping/Call/Stats
	// when the caller's context has none, so a request can never hang
	// against a black-holed server: each attempt (initial + each retry) is
	// individually bounded. A caller-supplied context deadline instead
	// bounds the whole operation, retries included. Scale is exempt
	// (migrations legitimately run long); use ScaleCtx to bound it.
	// Default 30s; negative disables.
	CallTimeout time.Duration
	// MaxRetries is how many times a failed request is automatically
	// retried with jittered exponential backoff: the first retry waits
	// retryBase, each further one doubles it, with ±50% jitter, capped at
	// retryMax; a server RetryAfter hint overrides smaller computed
	// backoffs. Only failures that are retryable AND safe
	// (definitely-not-executed, or an idempotent operation) are retried; a
	// non-idempotent Call whose request may have executed is returned to
	// the caller instead. Default 0 (no retries).
	MaxRetries int
	// Reconnect enables automatic redial after a connection failure:
	// in-flight requests still fail (their fate is unknowable), but the
	// client heals instead of staying dead, and fast-failed new requests
	// become retryable. Attempts back off up to retryMax and stop at Close.
	Reconnect bool

	// retryBase starts at the constant of the same name; in-package tests
	// shorten it.
	retryBase time.Duration
}

// Fixed client timings: no deployment sets them.
const (
	dialTimeout = 5 * time.Second // bounds each connection attempt
	retryBase   = 10 * time.Millisecond
	retryMax    = time.Second
)

func (o Options) normalized() Options {
	if o.CallTimeout == 0 {
		o.CallTimeout = 30 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.retryBase <= 0 {
		o.retryBase = retryBase
	}
	return o
}

// Client is a network client for a P-Store server. It is safe for
// concurrent use; requests multiplex over one TCP connection, and
// concurrent calls are coalesced into single writes (batching), so many
// goroutines sharing one client pay roughly one syscall per batch rather
// than one per request. With Options it adds the robustness layer: RPC
// deadlines, bounded jittered retries, and automatic reconnect.
type Client struct {
	addr string
	opts Options

	// Write side: callers append encoded frames to wbuf under wmu and
	// nudge the flusher, which swaps the buffer out and writes it in one
	// syscall. While a write is in flight new frames pile into the other
	// buffer — natural batching under concurrency, no added latency when
	// idle.
	wmu    sync.Mutex
	wbuf   []byte
	wspare []byte
	wake   chan struct{}
	done   chan struct{}

	mu           sync.Mutex
	conn         net.Conn // nil while disconnected
	gen          uint64   // bumped per successful (re)connect
	nextID       uint64
	pending      map[uint64]chan Response
	closed       bool
	readErr      error // first connection-level failure, the cause for new calls
	reconnecting bool

	retries    atomic.Int64
	reconnects atomic.Int64

	// Session vector: the highest LSN this client has written per
	// partition. Read attaches it so a replica serving the read waits
	// until it has applied the client's own writes (read-your-writes).
	sessMu  sync.Mutex
	session map[int]uint64
}

// replyChans recycles the one-shot response channels of roundTrip.
var replyChans = sync.Pool{New: func() any { return make(chan Response, 1) }}

// Dial connects to a P-Store server with legacy-compatible defaults (no
// retries, no reconnect). Use DialOptions for the robust configuration.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a P-Store server with explicit robustness
// options.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts = opts.normalized()
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		addr:    addr,
		opts:    opts,
		conn:    conn,
		pending: make(map[uint64]chan Response),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go c.readLoop(conn, c.gen)
	go c.writeLoop()
	return c, nil
}

// Retries returns how many automatic request retries this client has made.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Reconnects returns how many times this client has re-established its
// connection.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// Close terminates the connection. All outstanding requests fail
// deterministically with ErrClientClosed before Close returns.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.failPendingLocked(ErrClientClosed) //pstore:ignore lockorder — reply channels have capacity 1 and receive exactly one message (delivery deletes the pending entry first), so the sends inside cannot block
	c.mu.Unlock()
	close(c.done)
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// failPendingLocked delivers err to every in-flight request. Caller holds
// c.mu; each channel receives exactly one message because delivery always
// removes the entry from pending first.
func (c *Client) failPendingLocked(err error) {
	for id, ch := range c.pending { //pstore:ignore determinism — each waiter gets exactly one message on its own channel; delivery order across waiters is unobservable
		delete(c.pending, id)
		ch <- Response{ID: id, Err: err.Error()}
	}
}

// connFailed records a connection-level failure for generation gen, fails
// all in-flight requests, and (when enabled) starts the reconnect loop.
// Stale notifications from an already-replaced connection are ignored.
func (c *Client) connFailed(gen uint64, err error) {
	c.mu.Lock()
	if c.closed || gen != c.gen {
		c.mu.Unlock()
		return
	}
	if c.readErr == nil {
		c.readErr = err
	}
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.failPendingLocked(fmt.Errorf("pstore-client: connection lost: %w", err)) //pstore:ignore lockorder — reply channels have capacity 1 and receive exactly one message (delivery deletes the pending entry first), so the sends inside cannot block
	startReconnect := c.opts.Reconnect && !c.reconnecting
	if startReconnect {
		c.reconnecting = true
	}
	c.mu.Unlock()
	if startReconnect {
		go c.reconnectLoop()
	}
}

// reconnectLoop redials with capped backoff until it succeeds or the client
// closes. On success the connection generation advances: the batch buffer
// is cleared (frames buffered for the dead connection belong to requests
// that already failed) and a fresh read loop starts.
func (c *Client) reconnectLoop() {
	for attempt := 0; ; attempt++ {
		delay := backoffDelay(c.opts.retryBase, attempt, retryMax)
		select {
		case <-c.done:
			return
		case <-time.After(delay):
		}
		conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
		if err != nil {
			continue
		}
		c.wmu.Lock()
		c.wbuf = c.wbuf[:0]
		c.wmu.Unlock()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conn = conn
		c.gen++
		c.readErr = nil
		c.reconnecting = false
		gen := c.gen
		c.mu.Unlock()
		c.reconnects.Add(1)
		go c.readLoop(conn, gen)
		return
	}
}

func (c *Client) readLoop(conn net.Conn, gen uint64) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var frame []byte
	for {
		payload, err := readFrame(br, &frame)
		if err != nil {
			c.connFailed(gen, err)
			return
		}
		var resp Response
		if err := decodeResponse(payload, &resp); err != nil {
			c.connFailed(gen, err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// writeLoop flushes batched frames to the current connection. One iteration
// writes everything that accumulated while the previous write was on the
// wire. It is generation-agnostic: after a reconnect it simply flushes to
// the new connection (the swap clears frames addressed to the old one).
func (c *Client) writeLoop() {
	for {
		select {
		case <-c.done:
			return
		case <-c.wake:
		}
		// Yield once before taking the batch: the replies that made this
		// caller runnable made its siblings runnable too, and letting them
		// append first turns their requests into one write instead of one
		// each (the loopy-writer trick from grpc-go).
		runtime.Gosched()
		c.mu.Lock()
		conn := c.conn
		gen := c.gen
		c.mu.Unlock()
		c.wmu.Lock()
		buf := c.wbuf
		c.wbuf = c.wspare[:0]
		c.wspare = nil
		c.wmu.Unlock()
		if len(buf) > 0 && conn != nil {
			if _, err := conn.Write(buf); err != nil {
				c.connFailed(gen, err)
			}
		}
		c.wmu.Lock()
		if c.wspare == nil {
			c.wspare = buf[:0]
		}
		c.wmu.Unlock()
	}
}

// send encodes req into the batch buffer and nudges the flusher.
func (c *Client) send(req *Request) {
	c.wmu.Lock()
	c.wbuf = appendRequest(c.wbuf, req)
	c.wmu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default: // flusher already scheduled; it will pick this frame up too
	}
}

// deadlineTimers recycles per-attempt timeout timers so the steady-state
// request path does not allocate (context.WithTimeout would cost several
// allocations per call).
var deadlineTimers sync.Pool

// roundTrip sends a request and waits for its response, the context, or
// the per-attempt timeout (0 = none). sent=false means the request was
// never handed to the transport, so the failure is definitely-not-executed
// and blind retries are safe. A client whose connection has already failed
// returns the stored cause immediately rather than a generic error.
func (c *Client) roundTrip(ctx context.Context, req *Request, timeout time.Duration) (resp Response, sent bool, err error) {
	ch := replyChans.Get().(chan Response)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		replyChans.Put(ch)
		return Response{}, false, ErrClientClosed
	}
	if c.readErr != nil {
		rerr := c.readErr
		c.mu.Unlock()
		replyChans.Put(ch)
		return Response{}, false, fmt.Errorf("pstore-client: connection lost: %w", rerr)
	}
	if c.conn == nil {
		c.mu.Unlock()
		replyChans.Put(ch)
		return Response{}, false, ErrDisconnected
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()
	c.send(req)
	var timeC <-chan time.Time
	if timeout > 0 {
		var tm *time.Timer
		if v := deadlineTimers.Get(); v != nil {
			tm = v.(*time.Timer)
			tm.Reset(timeout)
		} else {
			tm = time.NewTimer(timeout)
		}
		timeC = tm.C
		defer func() {
			if !tm.Stop() {
				select {
				case <-tm.C:
				default:
				}
			}
			deadlineTimers.Put(tm)
		}()
	}
	expired := false
	select {
	case resp = <-ch:
		replyChans.Put(ch)
		return resp, true, nil
	case <-ctx.Done():
	case <-timeC:
		expired = true
	}
	// Deadline or cancellation. If the request is still pending, take it
	// back so nothing will ever send on ch and the channel can be reused;
	// if it is gone, a response delivery is imminent (the channel has
	// capacity 1, the send cannot block) — drain it so the channel is
	// clean before recycling.
	c.mu.Lock()
	_, pendingStill := c.pending[req.ID]
	delete(c.pending, req.ID)
	c.mu.Unlock()
	if !pendingStill {
		<-ch
	}
	replyChans.Put(ch)
	if expired {
		return Response{}, true, context.DeadlineExceeded
	}
	return Response{}, true, ctx.Err()
}

// backoffDelay is the jittered exponential backoff for the given 0-based
// attempt: base·2^attempt with ±50% jitter, capped at max.
func backoffDelay(base time.Duration, attempt int, max time.Duration) time.Duration {
	if attempt > 20 {
		attempt = 20
	}
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(2*half))
}

// do runs one request with the client's deadline and retry policy.
// idempotent marks operations that are safe to retry even when a previous
// attempt may have executed (Ping, Stats, read-only calls the caller vouches
// for).
func (c *Client) do(ctx context.Context, op string, req *Request, idempotent bool) (Response, error) {
	// With no caller deadline, CallTimeout bounds each attempt; a caller-
	// supplied deadline bounds the whole operation instead.
	var timeout time.Duration
	if _, has := ctx.Deadline(); !has && c.opts.CallTimeout > 0 && op != "scale" {
		timeout = c.opts.CallTimeout
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, cerr := c.attempt(ctx, op, req, timeout)
		if cerr == nil {
			return resp, nil
		}
		lastErr = cerr
		safe := cerr.Retryable && (idempotent || !cerr.MaybeExecuted)
		if !safe || attempt >= c.opts.MaxRetries {
			return Response{}, cerr
		}
		delay := backoffDelay(c.opts.retryBase, attempt, retryMax)
		if cerr.RetryAfter > delay {
			delay = cerr.RetryAfter
		}
		select {
		case <-ctx.Done():
			return Response{}, lastErr
		case <-time.After(delay):
		}
		c.retries.Add(1)
	}
}

// attempt performs one round trip and classifies the outcome. A nil error
// means success; otherwise the typed error says whether a retry can help
// and whether the attempt may have executed.
func (c *Client) attempt(ctx context.Context, op string, req *Request, timeout time.Duration) (Response, *Error) {
	resp, sent, err := c.roundTrip(ctx, req, timeout)
	switch {
	case err == nil:
	case errors.Is(err, ErrClientClosed):
		return Response{}, &Error{Op: op, Cause: err}
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The request may be executing right now; only the caller knows
		// whether a blind retry is safe.
		return Response{}, &Error{Op: op, Cause: err, Retryable: true, MaybeExecuted: sent}
	default:
		// Connection-level failure. Retry can only help if reconnect will
		// eventually restore a transport.
		return Response{}, &Error{Op: op, Cause: err, Retryable: c.opts.Reconnect, MaybeExecuted: sent}
	}
	if resp.Busy {
		return Response{}, &Error{Op: op, Cause: ErrServerBusy, Retryable: true, RetryAfter: resp.RetryAfter}
	}
	if s := resp.Err; s != "" && looksLikeConnLoss(s) {
		// failPendingLocked delivers connection failures through the
		// response channel; they carry the conn-lost prefix.
		return Response{}, &Error{Op: op, Cause: errors.New(s), Retryable: c.opts.Reconnect, MaybeExecuted: true}
	}
	return resp, nil
}

// looksLikeConnLoss recognizes the error strings failPendingLocked injects
// for requests that were in flight when the connection died.
func looksLikeConnLoss(s string) bool {
	const p1, p2 = "pstore-client: connection lost", "pstore-client: client closed"
	return len(s) >= len(p1) && s[:len(p1)] == p1 || s == p2
}

// Ping checks connectivity. Idempotent: retried automatically under the
// client's retry policy.
func (c *Client) Ping() error { return c.PingCtx(context.Background()) }

// PingCtx checks connectivity, honoring the context's deadline.
func (c *Client) PingCtx(ctx context.Context) error {
	req := Request{Kind: KindPing}
	resp, err := c.do(ctx, "ping", &req, true)
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// CallResult is the client-visible outcome of a transaction.
type CallResult struct {
	Out     map[string]string
	Latency time.Duration
	Abort   bool
}

// Call executes a stored procedure on the server. Automatic retries cover
// only failures where the transaction definitely did not execute (server
// busy, never sent); use CallIdempotent for read-only procedures to also
// retry ambiguous failures.
func (c *Client) Call(proc, key string, args map[string]string) (*CallResult, error) {
	return c.CallCtx(context.Background(), proc, key, args)
}

// CallCtx executes a stored procedure, honoring the context's deadline: the
// call either completes or fails with a typed retryable error by the
// deadline — it never hangs past it.
func (c *Client) CallCtx(ctx context.Context, proc, key string, args map[string]string) (*CallResult, error) {
	return c.callCtx(ctx, proc, key, args, false)
}

// CallIdempotent executes a stored procedure the caller vouches is
// idempotent (e.g. read-only), letting the retry policy also retry
// ambiguous failures such as deadline expiries and connection loss.
func (c *Client) CallIdempotent(ctx context.Context, proc, key string, args map[string]string) (*CallResult, error) {
	return c.callCtx(ctx, proc, key, args, true)
}

func (c *Client) callCtx(ctx context.Context, proc, key string, args map[string]string, idempotent bool) (*CallResult, error) {
	req := Request{Kind: KindCall, Proc: proc, Key: key, Args: args}
	resp, err := c.do(ctx, "call", &req, idempotent)
	if err != nil {
		return nil, err
	}
	if resp.Err == "" {
		c.noteWrite(resp)
	}
	res := &CallResult{Out: resp.Out, Latency: resp.Latency, Abort: resp.Abort}
	if resp.Err != "" && !resp.Abort {
		return nil, errors.New(resp.Err)
	}
	if resp.Abort {
		return res, fmt.Errorf("pstore-client: aborted: %s", resp.Err)
	}
	return res, nil
}

// noteWrite folds a routed call response into the session vector.
func (c *Client) noteWrite(resp Response) {
	if !resp.Routed || resp.LSN == 0 {
		return
	}
	c.sessMu.Lock()
	if c.session == nil {
		c.session = make(map[int]uint64)
	}
	if resp.LSN > c.session[resp.Part] {
		c.session[resp.Part] = resp.LSN
	}
	c.sessMu.Unlock()
}

// Session returns a copy of the client's session vector — the highest LSN
// it has written per partition.
func (c *Client) Session() map[int]uint64 {
	return c.copySession(make(map[int]uint64))
}

// copySession copies the session vector into dst and returns it.
func (c *Client) copySession(dst map[int]uint64) map[int]uint64 {
	c.sessMu.Lock()
	maps.Copy(dst, c.session)
	c.sessMu.Unlock()
	return dst
}

// sessionMaps recycles the session-vector snapshots reads carry: the
// request is encoded before do returns, so the snapshot is free again then.
var sessionMaps = sync.Pool{New: func() any { return make(map[int]uint64) }}

// Read executes a read-only stored procedure with session consistency: the
// server may serve it from a replica, but only one that has applied every
// write this client has made. Reads are idempotent, so ambiguous failures
// retry automatically under the client's retry policy.
func (c *Client) Read(proc, key string, args map[string]string) (*CallResult, error) {
	return c.ReadCtx(context.Background(), proc, key, args)
}

// ReadCtx is Read honoring the context's deadline.
func (c *Client) ReadCtx(ctx context.Context, proc, key string, args map[string]string) (*CallResult, error) {
	sess := c.copySession(sessionMaps.Get().(map[int]uint64))
	req := Request{Kind: KindRead, Proc: proc, Key: key, Args: args, Session: sess}
	resp, err := c.do(ctx, "read", &req, true)
	clear(sess)
	sessionMaps.Put(sess)
	if err != nil {
		return nil, err
	}
	res := &CallResult{Out: resp.Out, Latency: resp.Latency, Abort: resp.Abort}
	if resp.Err != "" && !resp.Abort {
		return nil, errors.New(resp.Err)
	}
	if resp.Abort {
		return res, fmt.Errorf("pstore-client: aborted: %s", resp.Err)
	}
	return res, nil
}

// KillNode asks the server to kill one node's partitions in place — the
// chaos hook driving failover tests: primaries hosted there crash and
// their replicas are promoted. Not idempotent (a second kill of the same
// node is an error), so ambiguous failures are returned, not retried.
func (c *Client) KillNode(node int) error { return c.KillNodeCtx(context.Background(), node) }

// KillNodeCtx is KillNode honoring the context's deadline.
func (c *Client) KillNodeCtx(ctx context.Context, node int) error {
	req := Request{Kind: KindKillNode, Node: node}
	resp, err := c.do(ctx, "kill-node", &req, false)
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Scale reconfigures the server's cluster to target nodes, blocking until
// the live migration completes. No default deadline applies (migrations
// legitimately run long); bound it with ScaleCtx.
func (c *Client) Scale(target int) error { return c.ScaleCtx(context.Background(), target) }

// ScaleCtx reconfigures the cluster, honoring the context's deadline.
func (c *Client) ScaleCtx(ctx context.Context, target int) error {
	req := Request{Kind: KindScale, TargetNodes: target}
	resp, err := c.do(ctx, "scale", &req, false)
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Stats fetches a cluster status snapshot. Idempotent: retried
// automatically under the client's retry policy.
func (c *Client) Stats() (*Stats, error) { return c.StatsCtx(context.Background()) }

// StatsCtx fetches a cluster status snapshot, honoring the context's
// deadline.
func (c *Client) StatsCtx(ctx context.Context) (*Stats, error) {
	req := Request{Kind: KindStats}
	resp, err := c.do(ctx, "stats", &req, true)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Stats, nil
}
