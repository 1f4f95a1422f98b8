package replication

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"pstore/internal/durability"
	"pstore/internal/metrics"
	"pstore/internal/storage"
)

func openDurableReplica(t *testing.T, rig *shipRig, dir string) *Replica {
	t.Helper()
	rep, err := OpenReplica(0, 16, "standby", testReg(), dir, durability.Options{}, rig.opts, newTestEvents())
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	return rep
}

func waitAck(t *testing.T, rep *Replica, min uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rep.AckLSN() < min {
		if time.Now().After(deadline) {
			t.Fatalf("durable horizon stuck at %d, want ≥ %d", rep.AckLSN(), min)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDurableReplicaRestartReplaysLocalLog is the S4 restart contract: a
// killed durable standby respawns from its own command log — no snapshot —
// resubscribes from its durable horizon, and converges byte-identical to
// both the primary and a fault-free in-memory replica that saw the same
// stream with no restart.
func TestDurableReplicaRestartReplaysLocalLog(t *testing.T) {
	rig := newShipRig(t, Options{Seed: 1})
	dir := t.TempDir()

	// Fault-free oracle: an in-memory replica on the same feed, never killed.
	oracle, _ := startReplica(t, rig, nil)

	rep1 := openDurableReplica(t, rig, dir)
	tail1 := StartTail(rig.hub.Addr(), rep1, nil, rig.opts, newTestEvents())
	for i := 0; i < 40; i++ {
		rig.write(fmt.Sprintf("a%d", i))
	}
	if err := rep1.WaitApplied(40, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitAck(t, rep1, 40) // tail syncs at the drain boundary; acks are durable

	// Kill -9: the log is crash-abandoned with its fsynced state intact.
	rep1.Kill()
	tail1.Stop()

	// Respawn recovers from the local log alone — before any wire contact.
	rep2 := openDurableReplica(t, rig, dir)
	if got := rep2.Applied(); got != 40 {
		t.Fatalf("recovered Applied = %d, want 40 (local log replay)", got)
	}
	if !rep2.Seeded() {
		t.Fatal("recovered replica not Seeded: it would be skipped for promotion")
	}
	if got := rep2.Epoch(); got != 1 {
		t.Fatalf("recovered Epoch = %d, want 1 (epoch sidecar)", got)
	}
	if got, want := encodeReplica(rep2), rig.encodePrimary(); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from primary before wire catch-up")
	}

	// Wire catch-up must be incremental from the durable horizon, not a
	// snapshot resync.
	tailEvents := newTestEvents()
	tail2 := StartTail(rig.hub.Addr(), rep2, nil, rig.opts, tailEvents)
	t.Cleanup(func() {
		rep2.Kill()
		tail2.Stop()
	})
	for i := 0; i < 20; i++ {
		rig.write(fmt.Sprintf("b%d", i))
	}
	if err := rep2.WaitApplied(60, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := oracle.WaitApplied(60, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := tailEvents.Get(metrics.EventReplResyncs); got != 0 {
		t.Errorf("restart caused %d snapshot resyncs, want 0 (incremental catch-up)", got)
	}
	if got, want := encodeReplica(rep2), rig.encodePrimary(); !bytes.Equal(got, want) {
		t.Fatal("restarted replica differs from primary after catch-up")
	}
	if got, want := encodeReplica(rep2), encodeReplica(oracle); !bytes.Equal(got, want) {
		t.Fatal("restarted replica differs from the fault-free oracle")
	}
}

// TestDurableReplicaApplyIdempotencyAndGaps: the Apply contract a catch-up
// overlap depends on — duplicates skip without touching state or the log,
// gaps refuse, stale epochs fence.
func TestDurableReplicaApplyIdempotencyAndGaps(t *testing.T) {
	rig := newShipRig(t, Options{Seed: 1}) // only for opts/registry conventions
	dir := t.TempDir()
	rep := openDurableReplica(t, rig, dir)
	defer rep.Kill()

	rec := func(lsn, epoch uint64, key string) *durability.Record {
		return &durability.Record{LSN: lsn, Epoch: epoch, Kind: durability.KindTxn, Proc: "Put", Key: key,
			Args: map[string]string{"v": key}}
	}
	// The tail's protocol: snapshot Apply + LogRecord only on advance.
	shipRec := func(r *durability.Record) error {
		applied := rep.Applied()
		if err := rep.Apply(r); err != nil {
			return err
		}
		if r.LSN > applied {
			return rep.LogRecord(r, durability.AppendRecord(nil, r))
		}
		return nil
	}
	for i := uint64(1); i <= 3; i++ {
		if err := shipRec(rec(i, 1, fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	// Duplicate re-delivery (catch-up overlap): skipped, nothing advances.
	if err := shipRec(rec(2, 1, "k2-dup")); err != nil {
		t.Fatalf("duplicate apply: %v", err)
	}
	if got := rep.Applied(); got != 3 {
		t.Fatalf("Applied after duplicate = %d, want 3", got)
	}
	// Gap: refused with an error naming the hole, state untouched.
	if err := shipRec(rec(5, 1, "k5")); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap apply = %v, want gap error", err)
	}
	if got := rep.Applied(); got != 3 {
		t.Fatalf("Applied after gap = %d, want 3", got)
	}
	// Stale epoch: fenced.
	if err := rep.Apply(rec(4, 0, "stale")); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch apply = %v, want ErrFenced", err)
	}

	// The log holds exactly the three advancing records: a restart replays
	// them and nothing else (the duplicate never reached the log).
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := rep.AckLSN(); got != 3 {
		t.Fatalf("AckLSN after Sync = %d, want 3", got)
	}
	before := encodeReplica(rep)
	rep.Kill()
	rep2 := openDurableReplica(t, rig, dir)
	defer rep2.Kill()
	if got := rep2.Applied(); got != 3 {
		t.Fatalf("restart Applied = %d, want 3", got)
	}
	if !bytes.Equal(encodeReplica(rep2), before) {
		t.Fatal("restart state differs: duplicate or gap leaked into the log")
	}
}

// TestDurableReplicaAckIsDurableHorizon: acks promise crash survival, so
// AckLSN must trail Applied until a Sync fsyncs the log.
func TestDurableReplicaAckIsDurableHorizon(t *testing.T) {
	rig := newShipRig(t, Options{Seed: 1})
	dir := t.TempDir()
	// Huge group-commit interval: nothing becomes durable without Sync.
	rep, err := OpenReplica(0, 16, "standby", testReg(), dir,
		durability.Options{GroupCommitInterval: time.Hour}, rig.opts, newTestEvents())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Kill()

	r := &durability.Record{LSN: 1, Epoch: 1, Kind: durability.KindTxn, Proc: "Put", Key: "k",
		Args: map[string]string{"v": "1"}}
	if err := rep.Apply(r); err != nil {
		t.Fatal(err)
	}
	if err := rep.LogRecord(r, durability.AppendRecord(nil, r)); err != nil {
		t.Fatal(err)
	}
	if got := rep.AckLSN(); got != 0 {
		t.Fatalf("AckLSN before Sync = %d, want 0 (not yet fsynced)", got)
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := rep.AckLSN(); got != 1 {
		t.Fatalf("AckLSN after Sync = %d, want 1", got)
	}
	// An in-memory replica acks its applied horizon directly.
	mem := NewReplica(0, 16, "standby", testReg(), rig.opts, newTestEvents())
	defer mem.Kill()
	if err := mem.Apply(r); err != nil {
		t.Fatal(err)
	}
	if got := mem.AckLSN(); got != 1 {
		t.Fatalf("in-memory AckLSN = %d, want 1", got)
	}
}

// TestPromoteHandsOffLogAtApplied: a durable standby whose log is one
// record behind its applied horizon (the record was applied, its log write
// was not made) hands off a log re-baselined at the applied LSN. The
// promoted feed's first write is then the log's next seq: it is accepted,
// acked and recovered along with everything the standby applied.
func TestPromoteHandsOffLogAtApplied(t *testing.T) {
	dir := t.TempDir()
	rep, err := OpenReplica(0, 16, "standby", testReg(), dir, durability.Options{}, Options{Seed: 1}, newTestEvents())
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Tables: []string{"T"}, Epoch: 1}
	for b := 0; b < 16; b++ {
		snap.Buckets = append(snap.Buckets, &storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{}})
	}
	if err := rep.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	r1 := txnRec(1, 1, "a")
	if err := rep.Apply(r1); err != nil {
		t.Fatal(err)
	}
	if err := rep.LogRecord(r1, durability.AppendRecord(nil, r1)); err != nil {
		t.Fatal(err)
	}
	if err := rep.Apply(txnRec(2, 1, "b")); err != nil { // never logged
		t.Fatal(err)
	}

	part, applied, epoch, mgr := rep.Promote()
	if applied != 2 || mgr == nil {
		t.Fatalf("Promote = (applied %d, manager %v), want (2, the standby's log)", applied, mgr)
	}
	if got := mgr.Seq(); got != applied {
		t.Fatalf("handed-off log ends at seq %d, want the applied LSN %d", got, applied)
	}
	feed := NewFeed(0, mgr, epoch+1, applied, Options{Seed: 1}, newTestEvents())
	done := make(chan error, 1)
	feed.Append("Put", "c", map[string]string{"v": "c"}, func(_ uint64, err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("first write of the promoted primary: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first write of the promoted primary never acked")
	}
	feed.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := part.Get("T", "b"); !ok {
		t.Fatal("promoted partition lost the applied record")
	}

	m, err := durability.Open(dir, 0, durability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p := storage.NewPartition(0, 16, nil)
	if _, err := m.Recover(p, testReg()); err != nil {
		t.Fatal(err)
	}
	if m.Seq() != 3 {
		t.Fatalf("recovered seq %d, want 3", m.Seq())
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok, _ := p.Get("T", k); !ok {
			t.Fatalf("recovery lost row %q", k)
		}
	}
}

// TestDurableTailAcksRecordBehindHeartbeat: when a heartbeat arrives in the
// same read as the last record, it is the heartbeat that drains the read
// buffer — the tail must still flush and ack the record then, not leave it
// unsynced (and the primary's write unacked) until more traffic comes.
func TestDurableTailAcksRecordBehindHeartbeat(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	opts := Options{Seed: 1}
	// An hour-long group-commit interval: only the tail's own flush request
	// can make the record durable.
	rep, err := OpenReplica(0, 16, "standby", testReg(), t.TempDir(),
		durability.Options{GroupCommitInterval: time.Hour}, opts, newTestEvents())
	if err != nil {
		t.Fatal(err)
	}
	tail := StartTail(ln.Addr().String(), rep, nil, opts, newTestEvents())
	defer func() {
		rep.Kill()
		tail.Stop()
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var buf []byte
	readAck := func() (uint64, error) {
		conn.SetReadDeadline(time.Now().Add(time.Second))
		payload, err := readShipFrame(br, &buf)
		if err != nil {
			return 0, err
		}
		return decodeAck(payload)
	}
	if _, err := readShipFrame(br, &buf); err != nil { // subscribe
		t.Fatal(err)
	}
	if _, err := conn.Write(encodeHello(&Attachment{Epoch: 1})); err != nil {
		t.Fatal(err)
	}
	if lsn, err := readAck(); err != nil || lsn != 0 {
		t.Fatalf("initial ack = %d, %v; want 0", lsn, err)
	}
	frame, _ := encodeFrame(&durability.Record{LSN: 1, Epoch: 1, Kind: durability.KindTxn, Proc: "Put", Key: "k",
		Args: map[string]string{"v": "1"}})
	if _, err := conn.Write(append(frame, encodeHeartbeat()...)); err != nil {
		t.Fatal(err)
	}
	for {
		lsn, err := readAck()
		if err != nil {
			t.Fatalf("record 1 never acked: %v (durable horizon %d)", err, rep.AckLSN())
		}
		if lsn >= 1 {
			return
		}
	}
}
