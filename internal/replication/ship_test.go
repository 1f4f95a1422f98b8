package replication

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pstore/internal/durability"
	"pstore/internal/engine"
	"pstore/internal/storage"
)

// shipRig is a primary (partition + feed + hub) for end-to-end shipping
// tests. mu keeps the partition state and the feed LSN consistent for
// writes and snapshot cuts, standing in for the cluster's executor.
type shipRig struct {
	t    *testing.T
	mu   sync.Mutex
	part *storage.Partition
	feed *Feed
	hub  *Hub
	reg  *engine.Registry
	opts Options
}

func newShipRig(t *testing.T, opts Options) *shipRig {
	t.Helper()
	const nBuckets = 16
	owned := make([]int, nBuckets)
	for i := range owned {
		owned[i] = i
	}
	rig := &shipRig{t: t, reg: testReg(), opts: opts.Normalized()}
	rig.part = storage.NewPartition(0, nBuckets, owned)
	rig.part.CreateTable("T")
	events := newTestEvents()
	rig.feed = NewFeed(0, nil, 1, 0, opts, events)
	rig.feed.SetSnapshotFunc(rig.snapshot)
	rig.hub = NewHub(opts, events)
	rig.hub.Register(0, rig.feed)
	if err := rig.hub.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rig.feed.Close()
		rig.hub.Close()
	})
	return rig
}

func (rig *shipRig) snapshot() (*Snapshot, error) {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	snap := &Snapshot{Tables: rig.part.Tables(), LSN: rig.feed.LSN(), Epoch: rig.feed.Epoch()}
	for _, b := range rig.part.OwnedBuckets() {
		d, err := rig.part.CopyBucket(b)
		if err != nil {
			return nil, err
		}
		snap.Buckets = append(snap.Buckets, d)
	}
	return snap, nil
}

// write applies one Put to the primary and ships it, without waiting for
// replica acks (the feed completion is collected asynchronously).
func (rig *shipRig) write(key string) {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	args := map[string]string{"v": key}
	if err := engine.ReplayTxn(rig.reg, rig.part, "Put", key, args); err != nil {
		rig.t.Fatalf("primary write %s: %v", key, err)
	}
	rig.feed.Append("Put", key, args, nil)
}

func (rig *shipRig) encodePrimary() []byte {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	var out []byte
	for _, b := range rig.part.OwnedBuckets() {
		d, err := rig.part.CopyBucket(b)
		if err != nil {
			rig.t.Fatal(err)
		}
		out = durability.AppendBucketData(out, d)
	}
	return out
}

func startReplica(t *testing.T, rig *shipRig, wrap func(net.Conn) net.Conn) (*Replica, *Tail) {
	t.Helper()
	rep := NewReplica(0, 16, "standby", testReg(), rig.opts, newTestEvents())
	tail := StartTail(rig.hub.Addr(), rep, wrap, rig.opts, newTestEvents())
	t.Cleanup(func() {
		rep.Kill()
		tail.Stop()
	})
	return rep, tail
}

// TestShipSnapshotThenLiveStream covers the full path: a fresh replica
// snapshot-seeds (its epoch 0 never matches the feed), drains the live
// stream, acks, and ends byte-identical to the primary.
func TestShipSnapshotThenLiveStream(t *testing.T) {
	rig := newShipRig(t, Options{Seed: 1})
	for i := 0; i < 30; i++ {
		rig.write(fmt.Sprintf("pre%d", i))
	}
	rep, _ := startReplica(t, rig, nil)
	if err := rep.WaitApplied(30, 5*time.Second); err != nil {
		t.Fatalf("replica never seeded: %v", err)
	}
	for i := 0; i < 40; i++ {
		rig.write(fmt.Sprintf("live%d", i))
	}
	if err := rep.WaitApplied(70, 5*time.Second); err != nil {
		t.Fatalf("replica never caught up: %v", err)
	}
	if got, want := encodeReplica(rep), rig.encodePrimary(); !bytes.Equal(got, want) {
		t.Fatal("replica state differs from primary after shipping")
	}
	// Acks must advance the feed's replication horizon to the head.
	deadline := time.Now().Add(5 * time.Second)
	for rig.feed.Horizon() != 70 {
		if time.Now().After(deadline) {
			t.Fatalf("horizon stuck at %d, want 70", rig.feed.Horizon())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// severConn wraps a connection so the test can cut it mid-stream.
type severConn struct {
	net.Conn
	once sync.Once
}

func (c *severConn) sever() { c.once.Do(func() { c.Conn.Close() }) }

// TestTailReconnectsAfterSever cuts the shipping connection under load; the
// tail must reconnect (resubscribing from its applied horizon) and converge
// without operator help.
func TestTailReconnectsAfterSever(t *testing.T) {
	rig := newShipRig(t, Options{Seed: 1})
	var cmu sync.Mutex
	var conns []*severConn
	wrap := func(c net.Conn) net.Conn {
		sc := &severConn{Conn: c}
		cmu.Lock()
		conns = append(conns, sc)
		cmu.Unlock()
		return sc
	}
	for i := 0; i < 20; i++ {
		rig.write(fmt.Sprintf("a%d", i))
	}
	rep, _ := startReplica(t, rig, wrap)
	if err := rep.WaitApplied(20, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	cmu.Lock()
	for _, c := range conns {
		c.sever()
	}
	nSevered := len(conns)
	cmu.Unlock()

	for i := 0; i < 30; i++ {
		rig.write(fmt.Sprintf("b%d", i))
	}
	if err := rep.WaitApplied(50, 10*time.Second); err != nil {
		t.Fatalf("replica never recovered from severed stream: %v", err)
	}
	if got, want := encodeReplica(rep), rig.encodePrimary(); !bytes.Equal(got, want) {
		t.Fatal("replica diverged across reconnect")
	}
	cmu.Lock()
	reconnected := len(conns) > nSevered
	cmu.Unlock()
	if !reconnected {
		t.Fatal("tail converged without a new connection — sever did not take")
	}
}

// TestHubRefusesUnknownPartition: a subscribe for an unregistered partition
// gets an explicit error frame, not a hang or a silent close.
func TestHubRefusesUnknownPartition(t *testing.T) {
	rig := newShipRig(t, Options{Seed: 1})
	conn, err := net.DialTimeout("tcp", rig.hub.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(encodeSubscribe(7, 0, 0)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var buf []byte
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := readShipFrame(br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeHello(payload); err == nil || !strings.Contains(err.Error(), "no feed for partition 7") {
		t.Fatalf("hello decode = %v, want refusal naming partition 7", err)
	}
}

// TestHubDeposesSilentSubscriber: a replica that stops acking is cut after
// AckTimeout so it cannot gate the commit path forever.
func TestHubDeposesSilentSubscriber(t *testing.T) {
	opts := Options{Seed: 1, AckTimeout: 150 * time.Millisecond}
	rig := newShipRig(t, opts)
	rig.write("seed")

	// A hand-rolled subscriber that subscribes, consumes its seeding, then
	// goes silent — no acks, no keepalives.
	conn, err := net.DialTimeout("tcp", rig.hub.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(encodeSubscribe(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, total := rig.feed.Subscribers()
		if total == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber never attached")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Give the hub's ack reader time to hit its deadline and sever the
	// connection; the next shipped write then flushes into the dead conn,
	// the stream errors out and the subscriber falls from the quorum — so
	// the write completes instead of hanging on an ack that never comes.
	time.Sleep(3 * opts.AckTimeout)
	done := make(chan error, 1)
	rig.mu.Lock()
	rig.feed.Append("Put", "after", map[string]string{"v": "1"}, func(_ uint64, err error) { done <- err })
	rig.mu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write still gated by a silent subscriber")
	}
	for {
		_, total := rig.feed.Subscribers()
		if total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent subscriber never deposed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
