package replication

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pstore/internal/durability"
	"pstore/internal/metrics"
)

// TestBatchStreamDecodesIdentical is the batching property test: a seeded
// stream of mixed records chunked into batch envelopes of random sizes must
// decode to the byte-identical record payload sequence the unbatched
// stream carries — batching may only change framing, never record bytes.
func TestBatchStreamDecodesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var frames [][]byte
	var want [][]byte
	lsn := uint64(0)
	for i := 0; i < 200; i++ {
		lsn++
		var rec *durability.Record
		switch rng.Intn(3) {
		case 0:
			rec = &durability.Record{LSN: lsn, Epoch: 1, Kind: durability.KindTxn, Proc: "Put",
				Key: fmt.Sprintf("k%d", rng.Intn(50)), Args: map[string]string{"v": fmt.Sprintf("%d", i)}}
		case 1:
			rec = &durability.Record{LSN: lsn, Epoch: 1, Kind: durability.KindPut, Tab: "T",
				Key: fmt.Sprintf("k%d", rng.Intn(50)), Args: map[string]string{"v": fmt.Sprintf("%d", i)}}
		default:
			rec = &durability.Record{LSN: lsn, Epoch: 1, Kind: durability.KindBucketOut, Bucket: rng.Intn(64)}
		}
		f, _ := encodeFrame(rec)
		frames = append(frames, f)
		p, rest, err := nextBatchRecord(f)
		if err != nil || len(rest) != 0 {
			t.Fatalf("frame %d: self-decode: %v (%d trailing)", i, err, len(rest))
		}
		want = append(want, append([]byte(nil), p...))
	}

	var stream []byte
	for i := 0; i < len(frames); {
		n := 1 + rng.Intn(8)
		if i+n > len(frames) {
			n = len(frames) - i
		}
		chunk := frames[i : i+n]
		nbytes := 0
		for _, f := range chunk {
			nbytes += len(f)
		}
		stream = appendBatchEnvelope(stream, chunk, nbytes)
		i += n
	}

	br := bufio.NewReader(bytes.NewReader(stream))
	var rbuf []byte
	var got [][]byte
	for {
		payload, err := readShipFrame(br, &rbuf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count, rest, err := splitBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		for j := uint64(0); j < count; j++ {
			var p []byte
			p, rest, err = nextBatchRecord(rest)
			if err != nil {
				t.Fatalf("record %d of batch: %v", j, err)
			}
			got = append(got, append([]byte(nil), p...))
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes after batch", len(rest))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: batched payload differs from unbatched", i)
		}
		gr, err1 := decodeRecord(got[i])
		wr, err2 := decodeRecord(want[i])
		if err1 != nil || err2 != nil {
			t.Fatalf("record %d: decode: %v / %v", i, err1, err2)
		}
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("record %d: decoded records differ", i)
		}
	}
}

// TestTornBatchEnvelopeFailsLoudly cuts a batch envelope at every byte
// boundary and miscounts its header: every variant must error, never hand
// back a full batch from torn input.
func TestTornBatchEnvelopeFailsLoudly(t *testing.T) {
	recs := sampleRecords()
	var frames [][]byte
	nbytes := 0
	for _, rec := range recs {
		f, _ := encodeFrame(rec)
		frames = append(frames, f)
		nbytes += len(f)
	}
	env := appendBatchEnvelope(nil, frames, nbytes)
	payload, rest, err := nextBatchRecord(env)
	if err != nil || len(rest) != 0 {
		t.Fatalf("stripping envelope frame prefix: %v (%d trailing)", err, len(rest))
	}

	decodeAll := func(p []byte) (int, error) {
		count, inner, err := splitBatch(p)
		if err != nil {
			return 0, err
		}
		decoded := 0
		for j := uint64(0); j < count; j++ {
			var rp []byte
			rp, inner, err = nextBatchRecord(inner)
			if err != nil {
				return decoded, err
			}
			if _, err = decodeRecord(rp); err != nil {
				return decoded, err
			}
			decoded++
		}
		if len(inner) != 0 {
			return decoded, durability.ErrTrailing
		}
		return decoded, nil
	}

	if n, err := decodeAll(payload); err != nil || n != len(recs) {
		t.Fatalf("intact envelope: decoded %d records, err %v", n, err)
	}
	for cut := 1; cut < len(payload); cut++ {
		if n, err := decodeAll(payload[:cut]); err == nil {
			t.Fatalf("cut at %d/%d: decoded %d records from torn envelope without error", cut, len(payload), n)
		}
	}

	// payload[1] is the single-byte count varint (len(recs) < 128).
	under := append([]byte(nil), payload...)
	under[1] = byte(len(recs) - 1)
	if _, err := decodeAll(under); !errors.Is(err, durability.ErrTrailing) {
		t.Errorf("understated count: %v, want durability.ErrTrailing", err)
	}
	over := append([]byte(nil), payload...)
	over[1] = byte(len(recs) + 1)
	if _, err := decodeAll(over); !errors.Is(err, durability.ErrTruncated) {
		t.Errorf("overstated count: %v, want durability.ErrTruncated", err)
	}
	padded := append(append([]byte(nil), payload...), 0x00)
	if _, err := decodeAll(padded); !errors.Is(err, durability.ErrTrailing) {
		t.Errorf("padded envelope: %v, want durability.ErrTrailing", err)
	}
	empty := binary.AppendUvarint([]byte{msgBatch}, 0)
	if _, _, err := splitBatch(empty); err == nil {
		t.Error("empty batch envelope accepted")
	}
}

// TestDuplicateCumulativeAckCompletesOnce drives the feed's ack window with
// duplicate and regressing cumulative acks: every transaction's completion
// must fire exactly once, in LSN order, and the subscriber's ack watermark
// must never move backwards.
func TestDuplicateCumulativeAckCompletesOnce(t *testing.T) {
	f := NewFeed(0, nil, 1, 0, Options{Seed: 1}, newTestEvents())
	defer f.Close()
	att, err := f.Attach(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Sub.Close()

	var mu sync.Mutex
	var done []uint64
	for i := 0; i < 5; i++ {
		f.Append("Put", fmt.Sprintf("k%d", i), map[string]string{"v": "1"}, func(lsn uint64, err error) {
			if err != nil {
				t.Errorf("append LSN %d failed: %v", lsn, err)
			}
			mu.Lock()
			done = append(done, lsn)
			mu.Unlock()
		})
	}
	check := func(stage string, want []uint64) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if !reflect.DeepEqual(done, want) {
			t.Fatalf("%s: completions %v, want %v", stage, done, want)
		}
	}
	check("before any ack", nil)
	att.Sub.Ack(3)
	check("ack 3", []uint64{1, 2, 3})
	att.Sub.Ack(3)
	check("duplicate ack 3", []uint64{1, 2, 3})
	att.Sub.Ack(2)
	if got := att.Sub.Acked(); got != 3 {
		t.Fatalf("ack watermark regressed to %d after Ack(2)", got)
	}
	check("regressing ack 2", []uint64{1, 2, 3})
	att.Sub.Ack(5)
	check("ack 5", []uint64{1, 2, 3, 4, 5})
}

// TestAckWindowBackpressure fills the feed's unacked window and checks that
// Available sheds with ErrWindowFull (counting the stall) until cumulative
// acks drain it.
func TestAckWindowBackpressure(t *testing.T) {
	events := newTestEvents()
	f := NewFeed(0, nil, 1, 0, Options{Seed: 1, ackWindowCap: 2}, events)
	defer f.Close()
	att, err := f.Attach(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Sub.Close()

	noop := func(uint64, error) {}
	f.Append("Put", "a", map[string]string{"v": "1"}, noop)
	f.Append("Put", "b", map[string]string{"v": "2"}, noop)
	if err := f.Available(); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("full window: %v, want ErrWindowFull", err)
	}
	if got := events.Get(metrics.EventReplWindowStalls); got != 1 {
		t.Fatalf("window stall count = %d, want 1", got)
	}
	att.Sub.Ack(2)
	if err := f.Available(); err != nil {
		t.Fatalf("drained window still unavailable: %v", err)
	}
}

// TestGatherBatchCaps pins the coalescing caps of the ship stream: a batch
// stops at maxBatchRecords records, or after the frame that brings it to
// maxBatchBytes, and the first frame is always taken, however large.
func TestGatherBatchCaps(t *testing.T) {
	cases := []struct {
		name               string
		first, size, queue int // first frame's bytes; queued frames' bytes and count
		wantRecs, wantLeft int
	}{
		{"record cap", 1, 1, 200, maxBatchRecords, 200 - (maxBatchRecords - 1)},
		{"byte cap", 1000, 1000, 100, 66, 100 - 65}, // 66 000 bytes is the first total ≥ 64 KiB
		{"oversized first frame", maxBatchBytes + 1, 1, 10, 1, 10},
		{"empty queue", 1, 1, 0, 1, 0},
	}
	for _, tc := range cases {
		frames := make(chan []byte, tc.queue)
		for i := 0; i < tc.queue; i++ {
			frames <- make([]byte, tc.size)
		}
		batch, nbytes := gatherBatch(frames, nil, make([]byte, tc.first))
		wantBytes := tc.first + (tc.wantRecs-1)*tc.size
		if len(batch) != tc.wantRecs || nbytes != wantBytes || len(frames) != tc.wantLeft {
			t.Errorf("%s: %d records, %d bytes, %d left queued; want %d, %d, %d",
				tc.name, len(batch), nbytes, len(frames), tc.wantRecs, wantBytes, tc.wantLeft)
		}
	}
}

// FuzzShipBatch feeds arbitrary bytes to the batch-envelope decoder the tail
// runs on every multi-record frame: splitting never panics, record payloads
// inside are only ever decoded through the record codec, and an envelope
// accepted whole (count and bytes consumed exactly) re-encodes to the same
// bytes.
func FuzzShipBatch(f *testing.F) {
	var frames [][]byte
	nbytes := 0
	for _, rec := range sampleRecords() {
		fr, _ := encodeFrame(rec)
		frames = append(frames, fr)
		nbytes += len(fr)
	}
	env := appendBatchEnvelope(nil, frames, nbytes)
	payload, _, err := nextBatchRecord(env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(payload[:len(payload)-2])
	f.Add([]byte{msgBatch, 1, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		count, rest, err := splitBatch(payload)
		if err != nil {
			return
		}
		var inner [][]byte
		n := 0
		for i := uint64(0); i < count; i++ {
			var rp []byte
			before := rest
			if rp, rest, err = nextBatchRecord(rest); err != nil {
				return
			}
			decodeRecord(rp)
			inner = append(inner, before[:len(before)-len(rest)])
			n += len(before) - len(rest)
		}
		if len(rest) != 0 {
			return
		}
		again, _, err := nextBatchRecord(appendBatchEnvelope(nil, inner, n))
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("accepted envelope re-encodes differently (%v):\n in  %x\n out %x", err, payload, again)
		}
	})
}
