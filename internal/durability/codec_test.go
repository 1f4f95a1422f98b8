package durability

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pstore/internal/storage"
)

func sampleRecords() []*Record {
	return []*Record{
		{LSN: 1, Epoch: 1, Kind: KindTxn, Proc: "set", Key: "k1", Args: map[string]string{"v": "1", "w": "2"}},
		{LSN: 2, Kind: KindTxn, Proc: "inc", Key: "k2"},
		{LSN: 3, Epoch: 2, Kind: KindPut, Tab: "t", Key: "k3", Args: map[string]string{"v": "x"}},
		{LSN: 4, Epoch: 2, Kind: KindBucketOut, Bucket: 17},
		{LSN: 5, Epoch: 3, Kind: KindBucketIn, Bucket: 4, Data: &storage.BucketData{
			Bucket: 4,
			Tables: map[string][]storage.Row{
				"t": {
					{Key: "b", Cols: map[string]string{"v": "2", "u": "3"}},
					{Key: "a", Cols: map[string]string{"v": "1"}},
				},
				"u": {},
			},
		}},
	}
}

// segmentBytes frames payloads exactly as the WAL writes them.
func segmentBytes(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	for _, p := range payloads {
		if err := writeFrame(w, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRecoverRefusesJSONEraData: the log and snapshots were JSON before the
// binary codec, and no reader for that format is kept. A directory holding
// either must fail recovery loudly rather than replay nothing.
func TestRecoverRefusesJSONEraData(t *testing.T) {
	jsonRecord, err := json.Marshal(map[string]any{"s": 1, "k": 1, "p": "set", "key": "a", "a": map[string]string{"v": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, file string
		content    []byte
	}{
		// Same len32|crc32 framing as today: the frame is intact, its
		// payload is not a record.
		{"wal record", segmentName(0), segmentBytes(t, jsonRecord)},
		{"snapshot", snapshotName(0), []byte(`{"partition":0,"nbuckets":8,"seg":0,"seq":0,"tables":["t"],"buckets":0}` + "\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, tc.file), tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			m := openTestManager(t, dir, Options{})
			defer m.Close()
			part := storage.NewPartition(0, 8, nil)
			part.CreateTable("t")
			if _, err := m.Recover(part, testRegistry()); err == nil {
				t.Fatal("Recover accepted a JSON-era data directory")
			}
		})
	}
}

// TestLogRejectsLSNNotNext: a payload logged through Manager.Log must carry
// the manager's next seq; anything else is refused and never reaches disk.
func TestLogRejectsLSNNotNext(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, Options{GroupCommitInterval: 500 * time.Microsecond})
	txn := func(lsn uint64) []byte {
		return AppendRecord(nil, &Record{LSN: lsn, Epoch: 1, Kind: KindTxn, Proc: "inc", Key: "a"})
	}
	for _, lsn := range []uint64{0, 2} {
		if err := m.Log(txn(lsn), nil); err == nil || !strings.Contains(err.Error(), "want next seq 1") {
			t.Fatalf("Log(LSN %d) on a fresh log = %v, want a next-seq refusal", lsn, err)
		}
	}
	if err := m.Log(txn(1), nil); err != nil {
		t.Fatalf("Log(LSN 1): %v", err)
	}
	if err := m.Log(txn(1), nil); err == nil {
		t.Fatal("Log accepted LSN 1 twice")
	}
	if _, err := m.logRecord(&Record{Kind: KindTxn, Proc: "inc", Key: "a"}, nil); err != nil {
		t.Fatalf("manager-stamped append after Log: %v", err)
	}
	if got := m.Seq(); got != 2 {
		t.Fatalf("Seq = %d, want 2", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := openTestManager(t, dir, Options{})
	defer m2.Close()
	part := newTestPartition(8)
	stats, err := m2.Recover(part, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Txns != 2 || m2.Seq() != 2 || getVal(t, part, "a") != "2" {
		t.Fatalf("recovered %d txns to seq %d, a = %q; want 2, 2, \"2\"", stats.Txns, m2.Seq(), getVal(t, part, "a"))
	}
}

// TestLogTakesLSNWhenRotationFails: a segment rotation that fails after the
// record's frame was written leaves the record in the log, so its LSN is
// taken. Were it not, the manager's seq would trail its feed's for good and
// refuse every later write as out of order.
func TestLogTakesLSNWhenRotationFails(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, Options{segmentBytes: 1})
	// A directory where the next segment belongs makes its creation fail.
	blocker := filepath.Join(dir, segmentName(1))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	set := func(lsn uint64) []byte {
		return AppendRecord(nil, &Record{LSN: lsn, Epoch: 1, Kind: KindTxn, Proc: "set", Key: "a",
			Args: map[string]string{"v": fmt.Sprint(lsn)}})
	}
	if err := m.Log(set(1), nil); err == nil {
		t.Fatal("Log reported success although the rotation after the write failed")
	}
	if got := m.Seq(); got != 1 {
		t.Fatalf("Seq after the failed rotation = %d, want 1: the record is in the log", got)
	}
	if err := m.Log(set(2), nil); err != nil && strings.Contains(err.Error(), "want next seq") {
		t.Fatalf("the next write was refused as out of order: %v", err)
	}
	m.Crash()

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	m2 := openTestManager(t, dir, Options{})
	defer m2.Close()
	part := newTestPartition(8)
	if _, err := m2.Recover(part, testRegistry()); err != nil {
		t.Fatal(err)
	}
	if m2.Seq() != 1 || getVal(t, part, "a") != "1" {
		t.Fatalf("recovered seq %d, a = %q; want 1, \"1\"", m2.Seq(), getVal(t, part, "a"))
	}
}

// FuzzRecordRoundTrip: decoding arbitrary bytes never panics, and any
// payload the decoder accepts re-encodes to exactly the same bytes — the
// codec is canonical, which is what lets every copy of a record be
// compared byte for byte.
func FuzzRecordRoundTrip(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(AppendRecord(nil, rec))
	}
	f.Add([]byte{KindTxn, 0x80, 0x00, 0}) // non-minimal varint
	f.Add([]byte(`{"k":1}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec Record
		if err := rec.Decode(payload); err != nil {
			return
		}
		if again := AppendRecord(nil, &rec); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", payload, again)
		}
	})
}

// FuzzWALSegment: replaying arbitrary segment bytes never panics, delivers
// exactly the leading run of intact frames, and stops at the first torn or
// corrupt frame — silently for a bad frame, with an error for an intact
// frame that is not a record.
func FuzzWALSegment(f *testing.F) {
	var payloads [][]byte
	for _, rec := range sampleRecords() {
		payloads = append(payloads, AppendRecord(nil, rec))
	}
	whole := segmentBytes(f, payloads...)
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add(append(append([]byte(nil), whole...), segmentBytes(f, []byte(`{"k":1}`))...))
	f.Fuzz(func(t *testing.T, seg []byte) {
		// The oracle: walk the frames by hand.
		var want [][]byte
		wantIntact, wantErr := false, false
		for rest := seg; ; {
			if len(rest) == 0 {
				wantIntact = true
				break
			}
			if len(rest) < frameHeaderSize {
				break
			}
			n := binary.LittleEndian.Uint32(rest[0:4])
			if n > maxFrame || uint64(n) > uint64(len(rest)-frameHeaderSize) {
				break
			}
			p := rest[frameHeaderSize : frameHeaderSize+int(n)]
			if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(rest[4:8]) {
				break
			}
			if err := new(Record).Decode(p); err != nil {
				wantErr = true
				break
			}
			want = append(want, p)
			rest = rest[frameHeaderSize+int(n):]
		}

		var got [][]byte
		intact, err := replayFrames(bufio.NewReader(bytes.NewReader(seg)), func(rec *Record) error {
			got = append(got, AppendRecord(nil, rec))
			return nil
		})
		if (err != nil) != wantErr {
			t.Fatalf("replay err = %v, want error %v", err, wantErr)
		}
		if intact != wantIntact {
			t.Fatalf("replay intact = %v, want %v", intact, wantIntact)
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, want the %d leading intact ones", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d differs from its frame", i)
			}
		}
	})
}

// snapshotBytes encodes part's snapshot exactly as Manager.Snapshot writes
// it to disk.
func snapshotBytes(t testing.TB, part *storage.Partition) []byte {
	t.Helper()
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	if err := writeSnapshotFrames(w, part, 3, 42); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzReadSnapshot: loading arbitrary snapshot bytes never panics and never
// leaves the partition owning a bucket outside [0, NBuckets). Bucket ids
// come straight off the disk, and cluster recovery indexes its routing
// table with whatever the partition ends up owning.
func FuzzReadSnapshot(f *testing.F) {
	const nBuckets = 8
	full := newTestPartition(nBuckets)
	full.CreateTable("u")
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := full.Put("t", key, map[string]string{"v": key, "w": fmt.Sprint(i)}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(snapshotBytes(f, full))
	f.Add(snapshotBytes(f, storage.NewPartition(0, nBuckets, nil)))
	// CRC-valid frames naming bucket NBuckets, and an id that wraps negative.
	f.Add(snapshotBytes(f, storage.NewPartition(0, nBuckets, []int{nBuckets})))
	f.Add(snapshotBytes(f, storage.NewPartition(0, nBuckets, []int{2, -1})))
	f.Fuzz(func(t *testing.T, snap []byte) {
		part := storage.NewPartition(0, nBuckets, nil)
		if _, _, err := readSnapshot(bufio.NewReader(bytes.NewReader(snap)), part); err != nil {
			return
		}
		for _, b := range part.OwnedBuckets() {
			if b < 0 || b >= nBuckets {
				t.Fatalf("snapshot load left the partition owning bucket %d of %d", b, nBuckets)
			}
		}
	})
}

// TestLogKeepsLSNOrderAcrossWriters: a migration logs its handoff record
// from its own goroutine while the executor keeps appending. LSN assignment
// and the log write are one step, so the log holds LSNs 1..n in order.
func TestLogKeepsLSNOrderAcrossWriters(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, Options{GroupCommitInterval: 500 * time.Microsecond})
	const appends, handoffs = 300, 30
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			m.Append("inc", "a", nil, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < handoffs; i++ {
			if err := m.LogBucketOut(i % 8); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var next uint64 = 1
	if err := replaySegments(dir, 0, func(rec *Record) error {
		if rec.LSN != next {
			t.Fatalf("log holds LSN %d where %d belongs", rec.LSN, next)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next != appends+handoffs+1 {
		t.Fatalf("log holds %d records, want %d", next-1, appends+handoffs)
	}
}
