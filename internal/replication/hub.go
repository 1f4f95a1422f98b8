package replication

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"pstore/internal/durability"
	"pstore/internal/metrics"
	"pstore/internal/storage"
)

// Hub is the log-shipping server: replicas dial in, subscribe to a
// partition's feed and stream records; acks flow back on the same
// connection and advance the feed's replication horizon. One hub serves
// every partition a process hosts.
type Hub struct {
	opts   Options
	events *metrics.Events

	mu        sync.Mutex
	feeds     map[int]*Feed
	minEpochs map[int]uint64 // fencing floor per partition; stale feeds/streams are refused
	ln        net.Listener
	conns     map[net.Conn]struct{}
	subs      map[net.Conn]connSub // active subscriptions, for targeted fencing severs
	closed    bool

	wg sync.WaitGroup
}

// connSub records which (partition, epoch) a subscriber connection is
// streaming, so FencePartition can sever exactly the stale streams.
type connSub struct {
	part  int
	epoch uint64
}

// NewHub creates a hub with no feeds registered.
func NewHub(opts Options, events *metrics.Events) *Hub {
	return &Hub{
		opts:      opts.Normalized(),
		events:    events,
		feeds:     make(map[int]*Feed),
		minEpochs: make(map[int]uint64),
		conns:     make(map[net.Conn]struct{}),
		subs:      make(map[net.Conn]connSub),
	}
}

// Register installs (or replaces, after a failover) the partition's feed.
// A feed below the partition's fencing floor is refused: a deposed primary
// rejoining after a network heal must not regain subscribers — it resyncs
// as a standby instead.
func (h *Hub) Register(part int, f *Feed) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if min := h.minEpochs[part]; f.Epoch() < min {
		return fmt.Errorf("%w: feed epoch %d below fencing floor %d for partition %d", ErrFenced, f.Epoch(), min, part)
	}
	h.feeds[part] = f
	return nil
}

// FencePartition raises the partition's epoch floor. Stale-epoch state is
// cut off at the hub: a registered feed below the floor is deregistered,
// and every subscriber stream fed from a stale epoch is severed so the
// replicas resubscribe to the new primary. The monitor calls this BEFORE a
// promoted replica serves — the old primary may be unreachable, but its
// subscribers are not, and taking them away is what forces it to
// self-fence (an armed feed below quorum stops acking).
func (h *Hub) FencePartition(part int, minEpoch uint64) {
	h.mu.Lock()
	if minEpoch <= h.minEpochs[part] {
		h.mu.Unlock()
		return
	}
	h.minEpochs[part] = minEpoch
	if f, ok := h.feeds[part]; ok && f.Epoch() < minEpoch {
		delete(h.feeds, part)
	}
	var sever []net.Conn
	for c, s := range h.subs { //pstore:ignore determinism — fencing sever-list; every stale stream is severed, order is unobservable
		if s.part == part && s.epoch < minEpoch {
			sever = append(sever, c)
		}
	}
	h.mu.Unlock()
	for _, c := range sever {
		c.Close()
	}
}

// MinEpoch returns the partition's fencing floor (zero if never fenced).
func (h *Hub) MinEpoch(part int) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.minEpochs[part]
}

// Registered returns the partition's registered feed, or nil.
func (h *Hub) Registered(part int) *Feed {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.feeds[part]
}

// Deregister removes the partition's feed; new subscribers are refused.
func (h *Hub) Deregister(part int) {
	h.mu.Lock()
	delete(h.feeds, part)
	h.mu.Unlock()
}

// Listen binds the hub and starts accepting subscribers.
func (h *Hub) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	h.ln = ln
	h.mu.Unlock()
	h.wg.Add(1)
	go h.acceptLoop(ln)
	return nil
}

// Addr returns the hub's bound address ("" before Listen).
func (h *Hub) Addr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ln == nil {
		return ""
	}
	return h.ln.Addr().String()
}

// Close stops the listener and severs every subscriber connection.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	ln := h.ln
	conns := make([]net.Conn, 0, len(h.conns))
	for c := range h.conns { //pstore:ignore determinism — shutdown sever-list; every conn is closed, order is unobservable
		conns = append(conns, c)
	}
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	h.wg.Wait()
}

func (h *Hub) acceptLoop(ln net.Listener) {
	defer h.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			conn.Close()
			return
		}
		h.conns[conn] = struct{}{}
		h.mu.Unlock()
		h.wg.Add(1)
		go h.serveConn(conn)
	}
}

func (h *Hub) dropConn(conn net.Conn) {
	conn.Close()
	h.mu.Lock()
	delete(h.conns, conn)
	h.mu.Unlock()
}

// serveConn handles one subscriber: subscribe → seeding (snapshot or
// catch-up frames) → live stream, with an ack reader on the side.
func (h *Hub) serveConn(conn net.Conn) {
	defer h.wg.Done()
	defer h.dropConn(conn)

	br := bufio.NewReaderSize(conn, 1<<16)
	conn.SetReadDeadline(time.Now().Add(dialTimeout)) //pstore:ignore seeddiscipline — I/O deadline arming, not a decision path
	var rbuf []byte
	payload, err := readShipFrame(br, &rbuf)
	if err != nil {
		return
	}
	part, fromLSN, fromEpoch, err := decodeSubscribe(payload)
	if err != nil {
		return
	}

	bw := bufio.NewWriterSize(conn, 1<<16)
	h.mu.Lock()
	feed, ok := h.feeds[part]
	minEpoch := h.minEpochs[part]
	h.mu.Unlock()
	if !ok {
		writeErrorFrame(conn, bw, fmt.Sprintf("no feed for partition %d", part), h.opts.AckTimeout)
		return
	}
	if feed.Epoch() < minEpoch {
		// The feed was fenced between lookup and here; refuse rather than
		// stream a deposed primary's records.
		writeErrorFrame(conn, bw, fmt.Sprintf("partition %d fenced at epoch %d", part, minEpoch), h.opts.AckTimeout)
		return
	}
	att, err := feed.Attach(fromLSN, fromEpoch)
	if err != nil {
		writeErrorFrame(conn, bw, err.Error(), h.opts.AckTimeout)
		return
	}
	defer att.Sub.Close()

	h.mu.Lock()
	fenced := att.Epoch < h.minEpochs[part]
	if !fenced {
		h.subs[conn] = connSub{part: part, epoch: att.Epoch}
	}
	h.mu.Unlock()
	if fenced {
		writeErrorFrame(conn, bw, fmt.Sprintf("partition %d fenced at epoch %d", part, h.MinEpoch(part)), h.opts.AckTimeout)
		return
	}
	defer func() {
		h.mu.Lock()
		delete(h.subs, conn)
		h.mu.Unlock()
	}()

	// Acks ride the same conn: a reader goroutine forwards them to the
	// subscriber. Its read deadline doubles as the liveness check — the
	// tail keepalives well inside AckTimeout, so a silent peer means a
	// dead or wedged replica and the connection is severed (the feed
	// deposes the subscriber via defer above, unblocking writers).
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer conn.Close()
		var abuf []byte
		for {
			conn.SetReadDeadline(time.Now().Add(h.opts.AckTimeout)) //pstore:ignore seeddiscipline — I/O deadline arming, not a decision path
			payload, err := readShipFrame(br, &abuf)
			if err != nil {
				return
			}
			lsn, err := decodeAck(payload)
			if err != nil {
				return
			}
			att.Sub.Ack(lsn)
		}
	}()

	if !h.writeSeeding(conn, bw, att) {
		return
	}
	h.streamLive(conn, bw, att)
}

// writeSeeding sends the hello plus snapshot/catch-up frames.
func (h *Hub) writeSeeding(conn net.Conn, bw *bufio.Writer, att *Attachment) bool {
	armWriteDeadline(conn, h.opts.AckTimeout)
	bw.Write(encodeHello(att))
	if att.Snapshot != nil {
		for _, b := range att.Snapshot.Buckets {
			armWriteDeadline(conn, h.opts.AckTimeout)
			bw.Write(encodeBucketFrame(b))
			if bw.Available() == 0 {
				if bw.Flush() != nil {
					return false
				}
			}
		}
	}
	for _, frame := range att.Catchup {
		armWriteDeadline(conn, h.opts.AckTimeout)
		if _, err := bw.Write(frame); err != nil {
			return false
		}
	}
	return bw.Flush() == nil
}

// streamLive forwards the subscriber's live queue until the connection or
// the subscription dies. Every record admitted to the queue while a send
// was in flight is coalesced into one multi-record batch envelope — one
// write, one standby fsync, one cumulative ack for the whole batch — capped
// by maxBatchRecords/maxBatchBytes; a lone record ships as a bare frame, so
// the idle-stream wire format is unchanged. Flushes at queue-drain
// boundaries so a burst pays one syscall. An idle stream carries
// heartbeats: the tail arms a read deadline on the live stream, so hub-side
// silence longer than AckTimeout — a partitioned or dead primary — kills
// the session instead of leaving a subscriber live at a stale ack
// watermark forever.
func (h *Hub) streamLive(conn net.Conn, bw *bufio.Writer, att *Attachment) {
	frames := att.Sub.Frames()
	gone := att.Sub.Gone()
	beat := time.NewTicker(h.opts.AckTimeout / 3)
	defer beat.Stop()
	// Session-local gather and envelope buffers, reused across batches so
	// the steady-state ship path allocates nothing per record.
	batch := make([][]byte, 0, maxBatchRecords)
	var env []byte
	for {
		var first []byte
		select {
		case first = <-frames:
		case <-beat.C:
			armWriteDeadline(conn, h.opts.AckTimeout)
			if _, err := bw.Write(encodeHeartbeat()); err != nil {
				return
			}
			if bw.Flush() != nil {
				return
			}
			continue
		case <-gone:
			return
		}
		for more := true; more; {
			var nbytes int
			batch, nbytes = gatherBatch(frames, batch[:0], first)
			wire := batch[0]
			if len(batch) > 1 {
				env = appendBatchEnvelope(env[:0], batch, nbytes)
				wire = env
			}
			armWriteDeadline(conn, h.opts.AckTimeout)
			if _, err := bw.Write(wire); err != nil {
				return
			}
			h.events.Observe(metrics.HistReplBatchRecords, int64(len(batch)))
			h.events.Observe(metrics.HistReplBatchBytes, int64(len(wire)))
			select {
			case first = <-frames:
			default:
				more = false
			}
		}
		if bw.Flush() != nil {
			return
		}
	}
}

// gatherBatch drains the subscriber queue without blocking, collecting
// frames (starting with first, which is always taken) until the record or
// byte cap. Returns the batch and its summed frame bytes.
func gatherBatch(frames <-chan []byte, batch [][]byte, first []byte) ([][]byte, int) {
	batch = append(batch, first)
	nbytes := len(first)
	for len(batch) < maxBatchRecords && nbytes < maxBatchBytes {
		select {
		case f := <-frames:
			batch = append(batch, f)
			nbytes += len(f)
		default:
			return batch, nbytes
		}
	}
	return batch, nbytes
}

func armWriteDeadline(conn net.Conn, d time.Duration) {
	conn.SetWriteDeadline(time.Now().Add(d)) //pstore:ignore seeddiscipline — I/O deadline arming, not a decision path
}

func writeErrorFrame(conn net.Conn, bw *bufio.Writer, msg string, timeout time.Duration) {
	armWriteDeadline(conn, timeout)
	bw.Write(encodeErrorFrame(msg))
	bw.Flush()
}

// ---- ship-stream message encoding ----

func frame(payload []byte) []byte {
	out := binary.AppendUvarint(make([]byte, 0, len(payload)+4), uint64(len(payload)))
	return append(out, payload...)
}

func encodeSubscribe(part int, fromLSN, fromEpoch uint64) []byte {
	p := []byte{msgSubscribe}
	p = binary.AppendUvarint(p, uint64(part))
	p = binary.AppendUvarint(p, fromLSN)
	p = binary.AppendUvarint(p, fromEpoch)
	return frame(p)
}

func decodeSubscribe(payload []byte) (part int, fromLSN, fromEpoch uint64, err error) {
	d := durability.NewDecoder(payload)
	if err := expectKind(&d, msgSubscribe, "subscribe"); err != nil {
		return 0, 0, 0, err
	}
	part, fromLSN, fromEpoch = int(d.Uvarint()), d.Uvarint(), d.Uvarint()
	return part, fromLSN, fromEpoch, d.Done()
}

func encodeHello(att *Attachment) []byte {
	p := []byte{msgHello}
	p = binary.AppendUvarint(p, att.Epoch)
	p = binary.AppendUvarint(p, att.StartLSN)
	if att.Snapshot == nil {
		p = append(p, 0)
		return frame(p)
	}
	p = append(p, 1)
	p = binary.AppendUvarint(p, uint64(len(att.Snapshot.Tables)))
	for _, t := range att.Snapshot.Tables {
		p = durability.AppendString(p, t)
	}
	p = binary.AppendUvarint(p, uint64(len(att.Snapshot.Buckets)))
	return frame(p)
}

// helloMsg is the decoded hub greeting.
type helloMsg struct {
	Epoch    uint64
	StartLSN uint64
	Snapshot bool
	Tables   []string
	NBuckets int
}

func decodeHello(payload []byte) (*helloMsg, error) {
	d := durability.NewDecoder(payload)
	if kind := d.Byte(); kind == msgError {
		if msg := d.Str(); d.Err() == nil {
			return nil, fmt.Errorf("replication: hub refused subscription: %s", msg)
		}
		return nil, d.Err()
	} else if d.Err() == nil && kind != msgHello {
		return nil, fmt.Errorf("replication: expected hello, got message kind %d", kind)
	}
	h := &helloMsg{Epoch: d.Uvarint(), StartLSN: d.Uvarint(), Snapshot: d.Byte() != 0}
	if h.Snapshot {
		// Each table name takes at least a byte: a corrupt count ends the
		// loop at the payload's end.
		for i, nt := uint64(0), d.Uvarint(); i < nt && d.Err() == nil; i++ {
			h.Tables = append(h.Tables, d.Str())
		}
		h.NBuckets = int(d.Uvarint())
	}
	return h, d.Done()
}

func encodeBucketFrame(b *storage.BucketData) []byte {
	p := []byte{msgBucket}
	p = durability.AppendBucketData(p, b)
	return frame(p)
}

func decodeBucketFrame(payload []byte) (*storage.BucketData, error) {
	d := durability.NewDecoder(payload)
	if err := expectKind(&d, msgBucket, "snapshot bucket"); err != nil {
		return nil, err
	}
	b := d.BucketData()
	return b, d.Done()
}

func encodeErrorFrame(msg string) []byte {
	p := []byte{msgError}
	p = durability.AppendString(p, msg)
	return frame(p)
}

func encodeAck(lsn uint64) []byte {
	p := []byte{msgAck}
	p = binary.AppendUvarint(p, lsn)
	return frame(p)
}

func encodeHeartbeat() []byte {
	return frame([]byte{msgHeartbeat})
}

// isHeartbeat reports whether a stream payload is a liveness beacon (the
// tail skips them; their arrival alone resets its read deadline).
func isHeartbeat(payload []byte) bool {
	return len(payload) == 1 && payload[0] == msgHeartbeat
}

func decodeAck(payload []byte) (uint64, error) {
	d := durability.NewDecoder(payload)
	if err := expectKind(&d, msgAck, "ack"); err != nil {
		return 0, err
	}
	lsn := d.Uvarint()
	return lsn, d.Done()
}
