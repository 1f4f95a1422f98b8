package durability

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"pstore/internal/engine"
	"pstore/internal/storage"
)

// testRegistry registers two deterministic procedures: "set" writes
// arg v into table t, "inc" increments an integer counter.
func testRegistry() *engine.Registry {
	reg := engine.NewRegistry()
	reg.Register("set", func(tx *engine.Txn) error {
		return tx.Put("t", tx.Key, map[string]string{"v": tx.Arg("v")})
	})
	reg.Register("inc", func(tx *engine.Txn) error {
		row, ok, err := tx.Get("t", tx.Key)
		if err != nil {
			return err
		}
		n := 0
		if ok {
			n, _ = strconv.Atoi(row.Cols["n"])
		}
		return tx.Put("t", tx.Key, map[string]string{"n": strconv.Itoa(n + 1)})
	})
	return reg
}

func allBuckets(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func newTestPartition(nBuckets int) *storage.Partition {
	p := storage.NewPartition(0, nBuckets, allBuckets(nBuckets))
	p.CreateTable("t")
	return p
}

// appendSync appends a command and waits for its durable ack.
func appendSync(t *testing.T, m *Manager, proc, key string, args map[string]string) {
	t.Helper()
	ch := make(chan error, 1)
	m.Append(proc, key, args, func(_ uint64, err error) { ch <- err })
	if err := <-ch; err != nil {
		t.Fatalf("append %s(%s): %v", proc, key, err)
	}
}

func openTestManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	m, err := Open(dir, 0, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

func getVal(t *testing.T, p *storage.Partition, key string) string {
	t.Helper()
	row, ok, err := p.Get("t", key)
	if err != nil {
		t.Fatalf("Get %s: %v", key, err)
	}
	if !ok {
		return ""
	}
	if v, ok := row.Cols["v"]; ok {
		return v
	}
	return row.Cols["n"]
}

func TestAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	opts := Options{GroupCommitInterval: 500 * time.Microsecond}
	m := openTestManager(t, dir, opts)
	for i := 0; i < 50; i++ {
		appendSync(t, m, "set", fmt.Sprintf("k%d", i), map[string]string{"v": fmt.Sprintf("v%d", i)})
	}
	for i := 0; i < 30; i++ {
		appendSync(t, m, "inc", "counter", nil)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2 := openTestManager(t, dir, opts)
	defer m2.Close()
	part := newTestPartition(8)
	stats, err := m2.Recover(part, testRegistry())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Txns != 80 {
		t.Errorf("replayed %d txns, want 80", stats.Txns)
	}
	if stats.SnapshotLoaded {
		t.Errorf("unexpected snapshot")
	}
	for i := 0; i < 50; i++ {
		if got, want := getVal(t, part, fmt.Sprintf("k%d", i)), fmt.Sprintf("v%d", i); got != want {
			t.Fatalf("k%d = %q, want %q", i, got, want)
		}
	}
	if got := getVal(t, part, "counter"); got != "30" {
		t.Errorf("counter = %q, want 30", got)
	}
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	opts := Options{GroupCommitInterval: 500 * time.Microsecond}
	m := openTestManager(t, dir, opts)
	part := newTestPartition(8)
	reg := testRegistry()
	apply := func(proc, key string, args map[string]string) {
		if err := engine.ReplayTxn(reg, part, proc, key, args); err != nil {
			t.Fatalf("apply: %v", err)
		}
		appendSync(t, m, proc, key, args)
	}
	for i := 0; i < 40; i++ {
		apply("inc", "a", nil)
	}
	if err := m.Snapshot(part); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Pre-snapshot segments must be gone.
	segs, err := listNumbered(dir, "wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Errorf("segments after snapshot: %v, want exactly the active one", segs)
	}
	// Log tail after the snapshot.
	for i := 0; i < 7; i++ {
		apply("inc", "a", nil)
	}
	m.Close()

	m2 := openTestManager(t, dir, opts)
	defer m2.Close()
	part2 := storage.NewPartition(0, 8, nil) // recovery starts unowned
	part2.CreateTable("t")
	stats, err := m2.Recover(part2, reg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !stats.SnapshotLoaded {
		t.Errorf("snapshot not loaded")
	}
	if stats.Txns != 7 {
		t.Errorf("replayed %d txns, want 7 (the tail)", stats.Txns)
	}
	if got := getVal(t, part2, "a"); got != "47" {
		t.Errorf("a = %q, want 47", got)
	}
	if len(part2.OwnedBuckets()) != 8 {
		t.Errorf("recovered %d buckets, want 8", len(part2.OwnedBuckets()))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{GroupCommitInterval: 500 * time.Microsecond, segmentBytes: 512}
	m := openTestManager(t, dir, opts)
	for i := 0; i < 100; i++ {
		appendSync(t, m, "set", fmt.Sprintf("k%d", i), map[string]string{"v": "x"})
	}
	m.Close()
	segs, err := listNumbered(dir, "wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want rotation to produce several", len(segs))
	}
	m2 := openTestManager(t, dir, opts)
	defer m2.Close()
	part := newTestPartition(8)
	stats, err := m2.Recover(part, testRegistry())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Txns != 100 {
		t.Errorf("replayed %d txns across segments, want 100", stats.Txns)
	}
}

func TestTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	opts := Options{GroupCommitInterval: 500 * time.Microsecond}
	m := openTestManager(t, dir, opts)
	for i := 0; i < 10; i++ {
		appendSync(t, m, "inc", "a", nil)
	}
	m.Close()
	// Corrupt the final record's payload in place.
	segs, _ := listNumbered(dir, "wal-", ".log")
	path := filepath.Join(dir, segmentName(segs[len(segs)-1]))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := openTestManager(t, dir, opts)
	defer m2.Close()
	part := newTestPartition(8)
	stats, err := m2.Recover(part, testRegistry())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Txns != 9 {
		t.Errorf("replayed %d txns, want 9 (torn final record dropped)", stats.Txns)
	}
	if got := getVal(t, part, "a"); got != "9" {
		t.Errorf("a = %q, want 9", got)
	}
}

func TestBucketHandoffReplay(t *testing.T) {
	dir := t.TempDir()
	opts := Options{GroupCommitInterval: 500 * time.Microsecond}
	m := openTestManager(t, dir, opts)
	// Receive a bucket with contents, then hand another away.
	in := &storage.BucketData{Bucket: 3, Tables: map[string][]storage.Row{
		"t": {{Key: "migrated", Cols: map[string]string{"v": "yes"}}},
	}}
	if err := m.LogBucketIn(in); err != nil {
		t.Fatalf("LogBucketIn: %v", err)
	}
	if err := m.LogBucketOut(5); err != nil {
		t.Fatalf("LogBucketOut: %v", err)
	}
	m.Close()

	m2 := openTestManager(t, dir, opts)
	defer m2.Close()
	// Partition starts owning buckets 5 only (e.g. from an older snapshot —
	// here, none, so seed it manually through a bucket apply).
	part := storage.NewPartition(0, 8, nil)
	part.CreateTable("t")
	if err := part.ApplyBucket(&storage.BucketData{Bucket: 5, Tables: map[string][]storage.Row{}}); err != nil {
		t.Fatal(err)
	}
	stats, err := m2.Recover(part, testRegistry())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.BucketsIn != 1 || stats.BucketsOut != 1 {
		t.Errorf("in/out = %d/%d, want 1/1", stats.BucketsIn, stats.BucketsOut)
	}
	if !part.Owns(3) || part.Owns(5) {
		t.Errorf("ownership after replay: owns(3)=%v owns(5)=%v, want true/false", part.Owns(3), part.Owns(5))
	}
	if !stats.FromHandoff[3] {
		t.Errorf("bucket 3 not marked as handoff-received")
	}
	row, ok, err := part.Get("t", "migrated")
	if err != nil || !ok || row.Cols["v"] != "yes" {
		t.Errorf("migrated row = %v %v %v, want yes", row, ok, err)
	}
}

func TestCrashDropsOnlyUnacked(t *testing.T) {
	dir := t.TempDir()
	// Long group-commit interval so un-synced data really is buffered.
	opts := Options{GroupCommitInterval: time.Hour}
	m := openTestManager(t, dir, opts)
	for i := 0; i < 5; i++ {
		// Acked by the Flush that covers it. No durable callback: one would
		// wake the committer eagerly, and that group commit could run late
		// enough to also cover the unsynced appends below.
		m.Append("inc", "a", nil, nil)
		if err := m.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	// These are appended but never synced: a crash may lose them.
	for i := 0; i < 5; i++ {
		m.Append("inc", "a", nil, nil)
	}
	m.Crash()

	m2 := openTestManager(t, dir, opts)
	defer m2.Close()
	part := newTestPartition(8)
	stats, err := m2.Recover(part, testRegistry())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Txns != 5 {
		t.Errorf("replayed %d txns, want exactly the 5 acked ones", stats.Txns)
	}
	if got := getVal(t, part, "a"); got != "5" {
		t.Errorf("a = %q, want 5", got)
	}
}

func TestSyncEveryMode(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, Options{SyncEvery: true})
	done := make(chan error, 1)
	m.Append("inc", "a", nil, func(_ uint64, err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sync-every append never acked")
	}
	m.Crash() // even a crash right after the ack must not lose the record

	m2 := openTestManager(t, dir, Options{SyncEvery: true})
	defer m2.Close()
	part := newTestPartition(8)
	stats, err := m2.Recover(part, testRegistry())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Txns != 1 {
		t.Errorf("replayed %d txns, want 1", stats.Txns)
	}
}

// partitionContents materializes every table of a partition as
// table → key → cols, the canonical form for whole-partition equality
// checks; contentChecksum folds the same data into an order-free FNV-1a
// sum, mirroring the cluster-level determinism checksum.
func partitionContents(t *testing.T, p *storage.Partition) map[string]map[string]map[string]string {
	t.Helper()
	out := make(map[string]map[string]map[string]string)
	for _, tab := range p.Tables() {
		rows := make(map[string]map[string]string)
		if _, err := p.Scan(tab, func(r storage.Row) bool {
			rows[r.Key] = r.Cols
			return true
		}); err != nil {
			t.Fatalf("Scan %s: %v", tab, err)
		}
		out[tab] = rows
	}
	return out
}

func contentChecksum(t *testing.T, p *storage.Partition) uint64 {
	t.Helper()
	var sum uint64
	for _, tab := range p.Tables() {
		if _, err := p.Scan(tab, func(r storage.Row) bool {
			h := fnv.New64a()
			h.Write([]byte(tab))
			h.Write([]byte{0})
			h.Write([]byte(r.Key))
			cols := make([]string, 0, len(r.Cols))
			for c := range r.Cols {
				cols = append(cols, c)
			}
			sort.Strings(cols)
			for _, c := range cols {
				h.Write([]byte{0})
				h.Write([]byte(c))
				h.Write([]byte{1})
				h.Write([]byte(r.Cols[c]))
			}
			sum ^= h.Sum64() // XOR: commutative, order-free
			return true
		}); err != nil {
			t.Fatalf("Scan %s: %v", tab, err)
		}
	}
	return sum
}

// TestSchemaEvolutionReplay recovers a log whose rows grow columns midway:
// early transactions write {v}, later ones add {audit, by} to the same
// table — so the live partition interned the new columns mid-stream while
// a recovering partition meets them in whatever order replay encounters.
// Field-ID assignment is in-memory only; the recovered contents and the
// order-free checksum must match the live partition exactly. A snapshot is
// taken while the schema is still narrow, so recovery also exercises
// snapshot-load followed by wider-schema tail replay.
func TestSchemaEvolutionReplay(t *testing.T) {
	reg := engine.NewRegistry()
	reg.Register("set", func(tx *engine.Txn) error {
		return tx.Put("t", tx.Key, map[string]string{"v": tx.Arg("v")})
	})
	reg.Register("audit", func(tx *engine.Txn) error {
		// The mid-log schema change: two columns this table has never held.
		cols := map[string]string{"audit": tx.Arg("audit"), "by": tx.Arg("by")}
		if v, ok, err := tx.Get("t", tx.Key); err != nil {
			return err
		} else if ok {
			cols["v"] = v.Cols["v"]
		}
		return tx.Put("t", tx.Key, cols)
	})

	dir := t.TempDir()
	opts := Options{GroupCommitInterval: 500 * time.Microsecond}
	m := openTestManager(t, dir, opts)
	live := newTestPartition(8)
	apply := func(proc, key string, args map[string]string) {
		if err := engine.ReplayTxn(reg, live, proc, key, args); err != nil {
			t.Fatalf("apply %s(%s): %v", proc, key, err)
		}
		appendSync(t, m, proc, key, args)
	}
	for i := 0; i < 32; i++ {
		apply("set", fmt.Sprintf("k%d", i), map[string]string{"v": fmt.Sprintf("v%d", i)})
	}
	// Snapshot with only {v} on disk; the columns added below live in the
	// log tail.
	if err := m.Snapshot(live); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 0; i < 32; i += 2 {
		apply("audit", fmt.Sprintf("k%d", i),
			map[string]string{"audit": fmt.Sprintf("a%d", i), "by": "ops"})
	}
	// And rows born after the evolution, never seen without the new columns.
	for i := 32; i < 40; i++ {
		apply("audit", fmt.Sprintf("k%d", i),
			map[string]string{"audit": fmt.Sprintf("a%d", i), "by": "ops"})
	}
	m.Close()

	m2 := openTestManager(t, dir, opts)
	defer m2.Close()
	recovered := storage.NewPartition(0, 8, nil)
	recovered.CreateTable("t")
	stats, err := m2.Recover(recovered, reg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !stats.SnapshotLoaded {
		t.Error("snapshot not loaded")
	}
	if stats.Txns != 24 {
		t.Errorf("replayed %d txns, want the 24 post-snapshot ones", stats.Txns)
	}
	if got, want := contentChecksum(t, recovered), contentChecksum(t, live); got != want {
		t.Errorf("content checksum after replay = %#x, want %#x", got, want)
	}
	if got, want := partitionContents(t, recovered), partitionContents(t, live); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered contents diverge from live partition:\n got %v\nwant %v", got, want)
	}
	// Spot-check the mixed generations: an untouched narrow row, an
	// upgraded row, and a born-wide row.
	for key, want := range map[string]map[string]string{
		"k1":  {"v": "v1"},
		"k2":  {"v": "v2", "audit": "a2", "by": "ops"},
		"k35": {"audit": "a35", "by": "ops"},
	} {
		row, ok, err := recovered.Get("t", key)
		if err != nil || !ok {
			t.Fatalf("Get %s: %v %v", key, ok, err)
		}
		if !reflect.DeepEqual(row.Cols, want) {
			t.Errorf("%s = %v, want %v", key, row.Cols, want)
		}
	}
}

// TestReplaceFile: ReplaceFile swaps a file's content and leaves no .tmp
// behind; a write that fails leaves the old file byte-identical. That the
// file and directory fsyncs ran is not observable without a power cut.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta")
	for _, want := range []string{"first", "second, longer"} {
		if err := ReplaceFile(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("content = %q, %v; want %q", got, err, want)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temporary file left behind: %v", err)
		}
	}
	// A directory where the temporary file belongs makes the write fail.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ReplaceFile(path, []byte("third")); err == nil {
		t.Fatal("ReplaceFile reported success although its temporary file could not be written")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second, longer" {
		t.Fatalf("failed replace changed the file: %q, %v", got, err)
	}
}

// TestLogSteadyStateAllocatesNothing pins the append path's allocation
// budget: once the segment is open, logging a pre-encoded payload — what a
// replication feed and a standby do per write — allocates nothing, frame
// header included.
func TestLogSteadyStateAllocatesNothing(t *testing.T) {
	m := openTestManager(t, t.TempDir(), Options{})
	defer m.Close()
	rec := Record{Kind: KindTxn, Proc: "Put", Key: "k", Args: map[string]string{"v": "x"}}
	var buf []byte
	logOne := func() {
		rec.LSN = m.Seq() + 1
		buf = AppendRecord(buf[:0], &rec)
		if err := m.Log(buf, nil); err != nil {
			t.Fatal(err)
		}
	}
	logOne() // warm the encode buffer
	if allocs := testing.AllocsPerRun(1000, logOne); allocs != 0 {
		t.Errorf("Manager.Log allocates %.1f objects per record, want 0", allocs)
	}
}
