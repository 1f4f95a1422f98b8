package replication

import (
	"errors"
	"testing"
	"time"

	"pstore/internal/engine"
	"pstore/internal/metrics"
)

func testReg() *engine.Registry {
	reg := engine.NewRegistry()
	reg.Register("Put", func(tx *engine.Txn) error {
		return tx.Put("T", tx.Key, map[string]string{"v": tx.Arg("v")})
	})
	reg.Register("Get", func(tx *engine.Txn) error {
		r, ok, err := tx.Get("T", tx.Key)
		if err != nil {
			return err
		}
		if !ok {
			return tx.Abort("not found")
		}
		tx.SetOut("v", r.Cols["v"])
		return nil
	})
	return reg
}

func newTestEvents() *metrics.Events { return metrics.NewEvents() }

func memFeed() *Feed {
	return NewFeed(0, nil, 1, 0, Options{Seed: 1}, newTestEvents())
}

// appendWait appends and returns the completion channel.
func appendWait(f *Feed, key string) chan error {
	done := make(chan error, 1)
	f.Append("Put", key, map[string]string{"v": key}, func(_ uint64, err error) { done <- err })
	return done
}

func TestFeedAckGatesCompletion(t *testing.T) {
	f := memFeed()
	defer f.Close()
	att, err := f.Attach(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if live, total := f.Subscribers(); live != 1 || total != 1 {
		t.Fatalf("subscribers = (%d,%d), want (1,1)", live, total)
	}

	done := appendWait(f, "a")
	select {
	case err := <-done:
		t.Fatalf("append completed before replica ack (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	// The frame reached the subscriber queue even though the ack is pending.
	select {
	case <-att.Sub.Frames():
	default:
		t.Fatal("no frame queued for subscriber")
	}
	att.Sub.Ack(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append after ack: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("append never completed after ack")
	}
	if h := f.Horizon(); h != 1 {
		t.Fatalf("horizon = %d, want 1", h)
	}
}

// TestFeedJoinIsPauseless: a subscriber attached mid-stream starts non-live
// and must not gate writes until its first ack reaches the join point.
func TestFeedJoinIsPauseless(t *testing.T) {
	f := memFeed()
	defer f.Close()
	for i := 0; i < 5; i++ {
		if err := <-appendWait(f, "w"); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot-based attach from scratch: StartLSN 0, joinLSN = 5 → not live.
	f.SetSnapshotFunc(func() (*Snapshot, error) {
		return &Snapshot{LSN: 0, Epoch: 1}, nil
	})
	att, err := f.Attach(0, 0) // epoch 0 ≠ feed epoch → snapshot path
	if err != nil {
		t.Fatal(err)
	}
	if att.Snapshot == nil {
		t.Fatal("expected snapshot seeding for epoch-0 subscriber")
	}
	if live, total := f.Subscribers(); live != 0 || total != 1 {
		t.Fatalf("subscribers = (%d,%d), want (0,1): catching-up join must not be live", live, total)
	}
	// Writes complete without the laggard's ack.
	select {
	case err := <-appendWait(f, "x"):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("non-live subscriber gated a write")
	}
	// First ack at/past the join point makes it live.
	att.Sub.Ack(f.LSN())
	if live, _ := f.Subscribers(); live != 1 {
		t.Fatal("subscriber not live after acking join LSN")
	}
	done := appendWait(f, "y")
	select {
	case err := <-done:
		t.Fatalf("append completed without live subscriber ack (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	att.Sub.Ack(f.LSN())
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFeedFenceFailsInFlightAndDeposes(t *testing.T) {
	f := memFeed()
	att, err := f.Attach(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := appendWait(f, "a") // blocked on the subscriber's ack
	f.Fence()
	if err := <-done; !errors.Is(err, ErrFenced) {
		t.Fatalf("in-flight waiter after fence: %v, want ErrFenced", err)
	}
	select {
	case <-att.Sub.Gone():
	case <-time.After(time.Second):
		t.Fatal("subscriber not deposed by fence")
	}
	if err := <-appendWait(f, "b"); !errors.Is(err, ErrFenced) {
		t.Fatalf("append to fenced feed: %v, want ErrFenced", err)
	}
	if err := f.LogPut("T", "k", nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("LogPut to fenced feed: %v, want ErrFenced", err)
	}
	if _, err := f.Attach(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("attach to fenced feed: %v, want ErrClosed", err)
	}
}

func TestFeedCloseFailsInFlight(t *testing.T) {
	f := memFeed()
	if _, err := f.Attach(0, 1); err != nil {
		t.Fatal(err)
	}
	done := appendWait(f, "a")
	f.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("in-flight waiter after close: %v, want ErrClosed", err)
	}
}

// TestFeedCatchupFromRetainedTail: a subscriber resuming within the
// retained window gets exactly the missing frames, no snapshot.
func TestFeedCatchupFromRetainedTail(t *testing.T) {
	f := memFeed()
	defer f.Close()
	for i := 0; i < 10; i++ {
		if err := <-appendWait(f, "k"); err != nil {
			t.Fatal(err)
		}
	}
	att, err := f.Attach(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if att.Snapshot != nil {
		t.Fatal("in-window resume must not snapshot")
	}
	if len(att.Catchup) != 6 {
		t.Fatalf("catchup = %d frames, want 6 (LSNs 5..10)", len(att.Catchup))
	}
	want := uint64(5)
	for _, frame := range att.Catchup {
		rec, err := decodeRecord(frame[frameHeaderLen(frame):])
		if err != nil {
			t.Fatal(err)
		}
		if rec.LSN != want {
			t.Fatalf("catchup frame LSN = %d, want %d", rec.LSN, want)
		}
		want++
	}
}

// frameHeaderLen returns the length of the uvarint length prefix on an
// encoded frame.
func frameHeaderLen(frame []byte) int {
	n := 0
	for frame[n]&0x80 != 0 {
		n++
	}
	return n + 1
}

// TestFeedSlowSubscriberDeposed: a subscriber that stops draining falls out
// of the ack quorum instead of wedging writers forever.
func TestFeedSlowSubscriberDeposed(t *testing.T) {
	f := NewFeed(0, nil, 1, 0, Options{Seed: 1, maxBuffer: 4}, newTestEvents())
	defer f.Close()
	att, err := f.Attach(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Queue capacity is maxBuffer; never drain it.
	for i := 0; i < 10; i++ {
		f.Append("Put", "k", map[string]string{"v": "1"}, nil)
	}
	select {
	case <-att.Sub.Gone():
	case <-time.After(time.Second):
		t.Fatal("overflowing subscriber was not deposed")
	}
	// With the laggard gone the feed degrades to local-only acks.
	if err := <-appendWait(f, "z"); err != nil {
		t.Fatal(err)
	}
}

func TestFeedStaleEpochAttachRejected(t *testing.T) {
	f := NewFeed(0, nil, 3, 0, Options{Seed: 1}, newTestEvents())
	defer f.Close()
	if _, err := f.Attach(0, 4); !errors.Is(err, errStaleEpoch) {
		t.Fatalf("attach from future epoch: %v, want errStaleEpoch", err)
	}
}
