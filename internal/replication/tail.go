package replication

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"pstore/internal/durability"
	"pstore/internal/metrics"
)

// errTailRetired marks a session ended because the replica stopped serving
// (promoted or killed) — the tail exits instead of reconnecting.
var errTailRetired = errors.New("replication: tail retired")

// Tail is the replica-side shipping client: it dials the hub, subscribes
// from the replica's applied horizon, applies records and acks them, and
// reconnects with seeded jittered backoff when the stream dies — resyncing
// from a snapshot automatically when its position has fallen off the feed.
type Tail struct {
	addr   string
	rep    *Replica
	opts   Options
	events *metrics.Events
	wrap   func(net.Conn) net.Conn

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartTail launches the shipping client for the replica against the hub
// at addr. wrap (optional) interposes fault injection on each connection.
func StartTail(addr string, rep *Replica, wrap func(net.Conn) net.Conn, opts Options, events *metrics.Events) *Tail {
	t := &Tail{
		addr:   addr,
		rep:    rep,
		opts:   opts.Normalized(),
		events: events,
		wrap:   wrap,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go t.run()
	return t
}

// Stop terminates the tail and waits for its goroutine. Idempotent.
func (t *Tail) Stop() {
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
}

// run is the reconnect loop. Backoff doubles per consecutive failure with
// ±50% jitter drawn from the run's seed, so chaos runs replay and tails
// don't thundering-herd a recovering hub.
func (t *Tail) run() {
	defer close(t.done)
	rng := rand.New(rand.NewSource(t.opts.Seed ^ int64(t.rep.Partition())*0x9e3779b9))
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	backoff := retryBase
	for {
		select {
		case <-t.stop:
			return
		default:
		}
		err := t.session()
		if err == nil || errors.Is(err, errTailRetired) || !t.rep.Serving() {
			return
		}
		t.events.Add(metrics.EventReplResyncs, 1)
		d := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		backoff *= 2
		if backoff > time.Second {
			backoff = time.Second
		}
		timer.Reset(d)
		select {
		case <-t.stop:
			return
		case <-timer.C:
		}
	}
}

// session runs one subscribe-and-apply stream. A nil return means the tail
// was asked to stop; any error triggers a reconnect.
func (t *Tail) session() error {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.Dial("tcp", t.addr)
	if err != nil {
		return err
	}
	if t.wrap != nil {
		conn = t.wrap(conn)
	}
	defer conn.Close()

	// Severing the connection is the one reliable way to unblock the
	// reader; a watcher does it on Stop.
	sessionDone := make(chan struct{})
	defer close(sessionDone)
	go func() {
		select {
		case <-t.stop:
			conn.Close()
		case <-sessionDone:
		}
	}()

	var wmu sync.Mutex
	bw := bufio.NewWriterSize(conn, 1<<14)
	sendFrame := func(b []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		armWriteDeadline(conn, t.opts.AckTimeout)
		if _, err := bw.Write(b); err != nil {
			return err
		}
		return bw.Flush()
	}

	if err := sendFrame(encodeSubscribe(t.rep.Partition(), t.rep.Applied(), t.rep.Epoch())); err != nil {
		return err
	}

	br := bufio.NewReaderSize(conn, 1<<16)
	var rbuf []byte
	conn.SetReadDeadline(time.Now().Add(dialTimeout + t.opts.StaleReadTimeout)) //pstore:ignore seeddiscipline — I/O deadline arming, not a decision path
	payload, err := readShipFrame(br, &rbuf)
	if err != nil {
		return err
	}
	hello, err := decodeHello(payload)
	if err != nil {
		return err
	}
	if hello.Snapshot {
		snap := &Snapshot{Tables: hello.Tables, LSN: hello.StartLSN, Epoch: hello.Epoch}
		for i := 0; i < hello.NBuckets; i++ {
			conn.SetReadDeadline(time.Now().Add(t.opts.AckTimeout)) //pstore:ignore seeddiscipline — I/O deadline arming, not a decision path
			payload, err := readShipFrame(br, &rbuf)
			if err != nil {
				return err
			}
			b, err := decodeBucketFrame(payload)
			if err != nil {
				return err
			}
			snap.Buckets = append(snap.Buckets, b)
		}
		if err := t.rep.InstallSnapshot(snap); err != nil {
			if errors.Is(err, ErrReplicaGone) {
				return errTailRetired
			}
			return err
		}
	}
	if err := t.rep.Sync(); err != nil {
		return err
	}
	if err := sendFrame(encodeAck(t.rep.AckLSN())); err != nil {
		return err
	}

	// Keepalive acks: the hub deposes silent subscribers after AckTimeout,
	// so re-ack the durable horizon well inside it even when the stream is
	// idle.
	t.startKeepalive(sessionDone, sendFrame)

	// Group fsync + pipelined ack: at each drained read buffer the replica
	// flushes its command log ONCE for every record applied since the last
	// drain and acks when the flush lands — a durable replica's ack is a
	// durability promise. The flush is asynchronous (requestSync on the
	// standby WAL), so the session keeps applying batch N+1 while batch N's
	// fsync is in flight; the callback runs on the WAL's group-commit
	// goroutine and acks are serialized by sendFrame's lock, duplicates and
	// reorders absorbed by the cumulative Ack on the feed side. A failed
	// flush severs the connection — the reconnect resyncs from the durable
	// horizon, never acking bytes that were not fsynced.
	var sinceSync int64
	var rec durability.Record // decoded into per record: its Args map is reused
	ackDurable := func(err error) {
		if err != nil {
			conn.Close()
			return
		}
		if sendFrame(encodeAck(t.rep.AckLSN())) != nil {
			conn.Close()
		}
	}
	for {
		// The hub heartbeats idle streams at AckTimeout/3, so a read
		// deadline on the live stream is a liveness check: silence means
		// the primary is dead or the link is partitioned, and the session
		// dies instead of leaving this subscriber live at a stale ack
		// watermark (which would stall the primary's writes forever).
		conn.SetReadDeadline(time.Now().Add(t.opts.AckTimeout)) //pstore:ignore seeddiscipline — I/O deadline arming, not a decision path
		payload, err := readShipFrame(br, &rbuf)
		if err != nil {
			return err
		}
		switch {
		case isHeartbeat(payload):
			// Nothing to apply, but it may be what drains the read buffer
			// behind the last record: fall through to the drain check.
		case len(payload) > 0 && payload[0] == msgBatch:
			count, rest, err := splitBatch(payload)
			if err != nil {
				return err
			}
			for i := uint64(0); i < count; i++ {
				var rp []byte
				rp, rest, err = nextBatchRecord(rest)
				if err != nil {
					return err
				}
				if err := t.applyOne(&rec, rp); err != nil {
					return err
				}
			}
			if len(rest) != 0 {
				return durability.ErrTrailing
			}
			sinceSync += int64(count)
		case len(payload) > 0 && payload[0] >= msgSubscribe:
			if payload[0] == msgError {
				d := durability.NewDecoder(payload[1:])
				return fmt.Errorf("replication: hub severed stream: %s", d.Str())
			}
			return fmt.Errorf("replication: unexpected message kind %d mid-stream", payload[0])
		default:
			if err := t.applyOne(&rec, payload); err != nil {
				return err
			}
			sinceSync++
		}
		if sinceSync > 0 && br.Buffered() == 0 {
			t.events.Observe(metrics.HistReplStandbyFsyncBatch, sinceSync)
			sinceSync = 0
			t.rep.SyncAsync(ackDurable)
		}
	}
}

// applyOne decodes one record payload into rec, applies it through the
// replica and appends the payload to the replica's own command log when
// freshly applied (not a duplicate-skip), so a respawn replays locally.
func (t *Tail) applyOne(rec *durability.Record, payload []byte) error {
	if err := rec.Decode(payload); err != nil {
		return err
	}
	applied := t.rep.Applied()
	if err := t.rep.Apply(rec); err != nil {
		if errors.Is(err, ErrReplicaGone) {
			return errTailRetired
		}
		return err
	}
	if rec.LSN > applied {
		// The received bytes are logged verbatim, before the next
		// readShipFrame reuses their buffer.
		if err := t.rep.LogRecord(rec, payload); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tail) startKeepalive(sessionDone chan struct{}, sendFrame func([]byte) error) {
	interval := t.opts.AckTimeout / 3
	go func() {
		timer := time.NewTimer(interval)
		defer timer.Stop()
		for {
			select {
			case <-sessionDone:
				return
			case <-t.stop:
				return
			case <-timer.C:
			}
			if sendFrame(encodeAck(t.rep.AckLSN())) != nil {
				return
			}
			timer.Reset(interval)
		}
	}()
}
