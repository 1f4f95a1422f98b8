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
	"testing"

	"pstore/internal/durability"
	"pstore/internal/storage"
)

func sampleRecords() []*durability.Record {
	return []*durability.Record{
		{LSN: 1, Epoch: 1, Kind: durability.KindTxn, Proc: "Put", Key: "k1", Args: map[string]string{"v": "1", "w": "2"}},
		{LSN: 2, Epoch: 1, Kind: durability.KindTxn, Proc: "Delete", Key: "k2"},
		{LSN: 3, Epoch: 2, Kind: durability.KindPut, Tab: "T", Key: "k3", Args: map[string]string{"v": "x"}},
		{LSN: 4, Epoch: 2, Kind: durability.KindBucketOut, Bucket: 17},
		{LSN: 5, Epoch: 3, Kind: durability.KindBucketIn, Bucket: 4, Data: &storage.BucketData{
			Bucket: 4,
			Tables: map[string][]storage.Row{
				"T": {
					{Key: "a", Cols: map[string]string{"v": "1"}},
					{Key: "b", Cols: map[string]string{"v": "2", "u": "3"}},
				},
				"U": {},
			},
		}},
	}
}

// decodeRecord decodes one record payload into a new Record.
func decodeRecord(payload []byte) (*durability.Record, error) {
	rec := new(durability.Record)
	return rec, rec.Decode(payload)
}

// appendRecord appends rec as one ship frame.
func appendRecord(buf []byte, rec *durability.Record) []byte {
	frame, _ := encodeFrame(rec)
	return append(buf, frame...)
}

func TestRecordCodecRoundTrip(t *testing.T) {
	var stream []byte
	recs := sampleRecords()
	for _, rec := range recs {
		stream = appendRecord(stream, rec)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range recs {
		payload, err := readShipFrame(br, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		// Empty maps decode as nil; normalize before comparing.
		if want.Kind == durability.KindBucketIn {
			if got.Bucket != want.Bucket || got.Data == nil {
				t.Fatalf("record %d: bucket mismatch", i)
			}
			ge := durability.AppendBucketData(nil, got.Data)
			we := durability.AppendBucketData(nil, want.Data)
			if !bytes.Equal(ge, we) {
				t.Fatalf("record %d: bucket data differs after round trip", i)
			}
			got.Data, want.Data = nil, nil
		}
		if len(want.Args) == 0 {
			want.Args = got.Args
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := readShipFrame(br, &buf); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestRecordCodecDeterministicEncoding re-encodes the same logical record
// many times; map iteration order must never leak into the bytes.
func TestRecordCodecDeterministicEncoding(t *testing.T) {
	rec := sampleRecords()[0]
	want := appendRecord(nil, rec)
	for i := 0; i < 50; i++ {
		args := make(map[string]string, len(rec.Args))
		for k, v := range rec.Args {
			args[k] = v
		}
		again := appendRecord(nil, &durability.Record{LSN: rec.LSN, Epoch: rec.Epoch, Kind: rec.Kind, Proc: rec.Proc, Key: rec.Key, Args: args})
		if !bytes.Equal(want, again) {
			t.Fatalf("iteration %d: encoding differs for identical record", i)
		}
	}
}

// TestTornFrameFailsLoudly truncates a shipped stream at every possible
// byte boundary: the decoder must error on every prefix, never hand back a
// record from torn input.
func TestTornFrameFailsLoudly(t *testing.T) {
	var stream []byte
	for _, rec := range sampleRecords() {
		stream = appendRecord(stream, rec)
	}
	whole := len(sampleRecords())
	for cut := 0; cut < len(stream); cut++ {
		br := bufio.NewReader(bytes.NewReader(stream[:cut]))
		var buf []byte
		decoded := 0
		var err error
		for {
			var payload []byte
			payload, err = readShipFrame(br, &buf)
			if err != nil {
				break
			}
			if _, err = decodeRecord(payload); err != nil {
				break
			}
			decoded++
		}
		if decoded >= whole {
			t.Fatalf("cut at %d/%d: decoded all %d records from a torn stream", cut, len(stream), decoded)
		}
		if err == nil {
			t.Fatalf("cut at %d: no error from torn stream", cut)
		}
	}
}

// TestCorruptPayloadRejected flips the interior of a record payload into
// forms the decoder must refuse: trailing garbage, truncated payloads and
// an oversized length prefix.
func TestCorruptPayloadRejected(t *testing.T) {
	rec := sampleRecords()[0]
	framed := appendRecord(nil, rec)
	br := bufio.NewReader(bytes.NewReader(framed))
	var buf []byte
	payload, err := readShipFrame(br, &buf)
	if err != nil {
		t.Fatal(err)
	}

	trailing := append(append([]byte(nil), payload...), 0xFF)
	if _, err := decodeRecord(trailing); !errors.Is(err, durability.ErrTrailing) {
		t.Errorf("trailing byte: %v, want durability.ErrTrailing", err)
	}
	for cut := 1; cut < len(payload); cut++ {
		if _, err := decodeRecord(payload[:cut]); err == nil {
			t.Errorf("truncated payload at %d decoded without error", cut)
		}
	}
	if _, err := decodeRecord([]byte{99, 1, 1}); err == nil {
		t.Error("unknown record kind decoded without error")
	}

	huge := binary.AppendUvarint(nil, maxShipFrame+1)
	if _, err := readShipFrame(bufio.NewReader(bytes.NewReader(huge)), &buf); !errors.Is(err, errShipTooLarge) {
		t.Errorf("oversized frame: %v, want errShipTooLarge", err)
	}
}

// TestDeterministicReplayProperty is the replay property test: a randomly
// generated command log applied to two fresh replicas must leave them
// byte-identical — snapshot encodings and applied horizons equal.
func TestDeterministicReplayProperty(t *testing.T) {
	const nBuckets = 16
	rng := rand.New(rand.NewSource(7))
	recs := make([]*durability.Record, 0, 400)
	lsn := uint64(0)
	// Seed ownership of every bucket, then a shuffled mix of puts, txns
	// and bucket handoffs.
	for b := 0; b < nBuckets; b++ {
		lsn++
		recs = append(recs, &durability.Record{LSN: lsn, Epoch: 1, Kind: durability.KindBucketIn, Bucket: b,
			Data: &storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{}}})
	}
	for i := 0; i < 300; i++ {
		lsn++
		key := fmt.Sprintf("key-%d", rng.Intn(120))
		switch rng.Intn(4) {
		case 0:
			recs = append(recs, &durability.Record{LSN: lsn, Epoch: 1, Kind: durability.KindPut, Tab: "T", Key: key,
				Args: map[string]string{"v": fmt.Sprintf("%d", i), "r": fmt.Sprintf("%d", rng.Intn(10))}})
		case 1:
			b := rng.Intn(nBuckets)
			recs = append(recs, &durability.Record{LSN: lsn, Epoch: 1, Kind: durability.KindBucketOut, Bucket: b})
		case 2:
			b := rng.Intn(nBuckets)
			recs = append(recs, &durability.Record{LSN: lsn, Epoch: 1, Kind: durability.KindBucketIn, Bucket: b,
				Data: &storage.BucketData{Bucket: b, Tables: map[string][]storage.Row{
					"T": {{Key: key, Cols: map[string]string{"v": "seeded"}}},
				}}})
		default:
			recs = append(recs, &durability.Record{LSN: lsn, Epoch: 1, Kind: durability.KindPut, Tab: "U", Key: key,
				Args: map[string]string{"n": fmt.Sprintf("%d", i)}})
		}
	}

	replay := func() *Replica {
		r := NewReplica(0, nBuckets, "n", testReg(), Options{Seed: 1}, newTestEvents())
		for _, rec := range recs {
			if err := r.Apply(cloneRecord(rec)); err != nil {
				t.Fatalf("apply LSN %d: %v", rec.LSN, err)
			}
		}
		return r
	}
	a, b := replay(), replay()
	if a.Applied() != b.Applied() {
		t.Fatalf("applied horizons differ: %d vs %d", a.Applied(), b.Applied())
	}
	ea, eb := encodeReplica(a), encodeReplica(b)
	if !bytes.Equal(ea, eb) {
		t.Fatalf("replica states differ after identical replay (%d vs %d bytes)", len(ea), len(eb))
	}
}

// cloneRecord deep-copies a record so one replay cannot alias state into
// the other through shared maps.
func cloneRecord(rec *durability.Record) *durability.Record {
	out := *rec
	if rec.Args != nil {
		out.Args = make(map[string]string, len(rec.Args))
		for k, v := range rec.Args {
			out.Args[k] = v
		}
	}
	if rec.Data != nil {
		d := &storage.BucketData{Bucket: rec.Data.Bucket, Tables: make(map[string][]storage.Row, len(rec.Data.Tables))}
		for name, rows := range rec.Data.Tables {
			cp := make([]storage.Row, len(rows))
			for i, r := range rows {
				cols := make(map[string]string, len(r.Cols))
				for k, v := range r.Cols {
					cols[k] = v
				}
				cp[i] = storage.Row{Key: r.Key, Cols: cols}
			}
			d.Tables[name] = cp
		}
		out.Data = d
	}
	return &out
}

// encodeReplica serializes a replica's owned buckets with the deterministic
// bucket encoding.
func encodeReplica(r *Replica) []byte {
	var out []byte
	r.Inspect(func(p *storage.Partition) {
		for _, b := range p.OwnedBuckets() {
			d, err := p.CopyBucket(b)
			if err != nil {
				panic(err)
			}
			out = durability.AppendBucketData(out, d)
		}
	})
	return out
}
