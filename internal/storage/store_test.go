package storage

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// allBuckets returns 0..n-1.
func allBuckets(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func newTestPartition() *Partition {
	p := NewPartition(0, 64, allBuckets(64))
	p.CreateTable("CART")
	return p
}

func TestPartitionCRUD(t *testing.T) {
	p := newTestPartition()
	if err := p.Put("CART", "c1", map[string]string{"total": "10"}); err != nil {
		t.Fatal(err)
	}
	r, ok, err := p.Get("CART", "c1")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if r.Cols["total"] != "10" {
		t.Errorf("cols = %v", r.Cols)
	}
	if _, ok, _ := p.Get("CART", "missing"); ok {
		t.Error("missing key should not be found")
	}
	existed, err := p.Delete("CART", "c1")
	if err != nil || !existed {
		t.Fatalf("Delete: existed=%v err=%v", existed, err)
	}
	if existed, _ := p.Delete("CART", "c1"); existed {
		t.Error("double delete should report not existed")
	}
	if p.RowCount() != 0 {
		t.Errorf("RowCount = %d", p.RowCount())
	}
}

func TestPartitionUnknownTable(t *testing.T) {
	p := newTestPartition()
	if _, _, err := p.Get("NOPE", "k"); err == nil {
		t.Error("unknown table Get should fail")
	}
	if err := p.Put("NOPE", "k", nil); err == nil {
		t.Error("unknown table Put should fail")
	}
	if _, err := p.Delete("NOPE", "k"); err == nil {
		t.Error("unknown table Delete should fail")
	}
}

func TestPartitionOwnership(t *testing.T) {
	// Partition owns only bucket of key "a"; operations on other keys fail
	// with ErrNotOwned.
	b := BucketOf("a", 64)
	p := NewPartition(1, 64, []int{b})
	p.CreateTable("T")
	if err := p.Put("T", "a", map[string]string{"x": "1"}); err != nil {
		t.Fatal(err)
	}
	var other string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key%d", i)
		if BucketOf(k, 64) != b {
			other = k
			break
		}
	}
	err := p.Put("T", other, nil)
	var notOwned *ErrNotOwned
	if !errors.As(err, &notOwned) {
		t.Fatalf("err = %v, want ErrNotOwned", err)
	}
	if notOwned.Partition != 1 {
		t.Errorf("ErrNotOwned partition = %d", notOwned.Partition)
	}
	if p.OwnsKey(other) {
		t.Error("should not own other key")
	}
	if !p.OwnsKey("a") {
		t.Error("should own key a")
	}
}

func TestRowCloneIsolation(t *testing.T) {
	p := newTestPartition()
	cols := map[string]string{"total": "10"}
	if err := p.Put("CART", "c1", cols); err != nil {
		t.Fatal(err)
	}
	cols["total"] = "mutated"
	r, _, _ := p.Get("CART", "c1")
	if r.Cols["total"] != "10" {
		t.Error("Put must deep-copy columns")
	}
	r.Cols["total"] = "mutated-again"
	r2, _, _ := p.Get("CART", "c1")
	if r2.Cols["total"] != "10" {
		t.Error("Get must deep-copy columns")
	}
}

func TestExtractApplyBucketRoundTrip(t *testing.T) {
	src := newTestPartition()
	src.CreateTable("STOCK")
	// Insert keys until some bucket has a few rows.
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("cart-%d", i)
		if err := src.Put("CART", k, map[string]string{"i": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	bucket := BucketOf("cart-0", 64)
	wantRows := src.BucketRowCount(bucket)
	if wantRows == 0 {
		t.Fatal("bucket empty")
	}
	pages, err := src.ExtractBucketPages(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if pages.RowCount() != wantRows {
		t.Errorf("extracted %d rows, want %d", pages.RowCount(), wantRows)
	}
	if src.Owns(bucket) {
		t.Error("source should lose ownership")
	}
	if _, _, err := src.Get("CART", "cart-0"); err == nil {
		t.Error("source access after extraction should fail")
	}
	// Double extraction fails.
	if _, err := src.ExtractBucketPages(bucket); err == nil {
		t.Error("double extract should fail")
	}

	dst := NewPartition(2, 64, nil)
	if err := dst.ApplyBucketPages(pages); err != nil {
		t.Fatal(err)
	}
	if !dst.Owns(bucket) {
		t.Error("destination should own bucket")
	}
	r, ok, err := dst.Get("CART", "cart-0")
	if err != nil || !ok {
		t.Fatalf("dest Get: ok=%v err=%v", ok, err)
	}
	if r.Cols["i"] != "0" {
		t.Errorf("cols = %v", r.Cols)
	}
	// Re-applying fails.
	if err := dst.ApplyBucketPages(pages); err == nil {
		t.Error("double apply should fail")
	}
}

func TestExtractEmptyBucket(t *testing.T) {
	p := newTestPartition()
	pages, err := p.ExtractBucketPages(7)
	if err != nil {
		t.Fatal(err)
	}
	if pages.RowCount() != 0 || pages.Data().RowCount() != 0 {
		t.Errorf("rows = %d", pages.RowCount())
	}
	if p.Owns(7) {
		t.Error("ownership should be revoked even for empty buckets")
	}
}

// TestExtractApplyMultiTableRoundTrip moves a bucket whose rows span several
// tables and checks every table's rows arrive intact at the destination.
func TestExtractApplyMultiTableRoundTrip(t *testing.T) {
	src := newTestPartition()
	src.CreateTable("STOCK")
	src.CreateTable("ORDERS")
	tables := []string{"CART", "STOCK", "ORDERS"}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("row-%d", i)
		for _, tab := range tables {
			if err := src.Put(tab, k, map[string]string{"t": tab, "i": fmt.Sprint(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	bucket := BucketOf("row-0", 64)
	wantRows := src.BucketRowCount(bucket)
	if wantRows == 0 {
		t.Fatal("bucket empty")
	}

	pages, err := src.ExtractBucketPages(bucket)
	if err != nil {
		t.Fatal(err)
	}
	data := pages.Data()
	if len(data.Tables) != len(tables) {
		t.Errorf("extracted %d tables, want %d", len(data.Tables), len(tables))
	}
	if data.RowCount() != wantRows {
		t.Errorf("extracted %d rows, want %d", data.RowCount(), wantRows)
	}

	dst := NewPartition(9, 64, nil)
	if err := dst.ApplyBucketPages(pages); err != nil {
		t.Fatal(err)
	}
	if got := dst.BucketRowCount(bucket); got != wantRows {
		t.Errorf("destination holds %d rows, want %d", got, wantRows)
	}
	for _, tab := range tables {
		r, ok, err := dst.Get(tab, "row-0")
		if err != nil || !ok {
			t.Fatalf("dest Get(%s): ok=%v err=%v", tab, ok, err)
		}
		if r.Cols["t"] != tab {
			t.Errorf("%s row cols = %v", tab, r.Cols)
		}
	}
}

// TestEmptyBucketRoundTrip checks that extracting a bucket with no rows
// still transfers ownership: the destination owns it after apply and can
// accept writes the source now rejects.
func TestEmptyBucketRoundTrip(t *testing.T) {
	src := newTestPartition()
	const bucket = 7
	// Find a key that hashes into the bucket so we can write post-move.
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("k-%d", i); BucketOf(k, 64) == bucket {
			key = k
		}
	}

	pages, err := src.ExtractBucketPages(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if pages.RowCount() != 0 {
		t.Errorf("rows = %d, want 0", pages.RowCount())
	}
	if src.Owns(bucket) {
		t.Error("source should lose ownership of the empty bucket")
	}

	dst := NewPartition(3, 64, nil)
	dst.CreateTable("CART")
	if err := dst.ApplyBucketPages(pages); err != nil {
		t.Fatal(err)
	}
	if !dst.Owns(bucket) {
		t.Error("destination should own the empty bucket")
	}
	if err := dst.Put("CART", key, map[string]string{"x": "1"}); err != nil {
		t.Errorf("write to moved empty bucket: %v", err)
	}
	var notOwned *ErrNotOwned
	if err := src.Put("CART", key, map[string]string{"x": "1"}); !errors.As(err, &notOwned) {
		t.Errorf("source write after move: err = %v, want ErrNotOwned", err)
	}
}

// TestCopyBucketNonDestructive checks the snapshot path: CopyBucket leaves
// the partition untouched and returns an isolated deep copy.
func TestCopyBucketNonDestructive(t *testing.T) {
	p := newTestPartition()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("cart-%d", i)
		if err := p.Put("CART", k, map[string]string{"i": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	bucket := BucketOf("cart-0", 64)
	want := p.BucketRowCount(bucket)

	data, err := p.CopyBucket(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if data.RowCount() != want {
		t.Errorf("copied %d rows, want %d", data.RowCount(), want)
	}
	if !p.Owns(bucket) || p.BucketRowCount(bucket) != want {
		t.Error("copy must not disturb the partition")
	}

	// A copy restores cleanly into a fresh partition (snapshot load path).
	dst := NewPartition(2, 64, nil)
	if err := dst.ApplyBucket(data); err != nil {
		t.Fatal(err)
	}
	r, ok, err := dst.Get("CART", "cart-0")
	if err != nil || !ok {
		t.Fatalf("restored Get: ok=%v err=%v", ok, err)
	}
	if r.Cols["i"] != "0" {
		t.Errorf("restored cols = %v", r.Cols)
	}

	// The copy is deep: tampering with it must not reach the partition.
	first := data.Tables["CART"][0]
	first.Cols["i"] = "tampered"
	if r, _, _ := p.Get("CART", first.Key); r.Cols["i"] == "tampered" {
		t.Error("copy shares row storage with the partition")
	}

	// Copying an unowned bucket fails.
	var notOwned *ErrNotOwned
	if _, err := NewPartition(1, 64, nil).CopyBucket(bucket); !errors.As(err, &notOwned) {
		t.Errorf("unowned copy: err = %v, want ErrNotOwned", err)
	}
}

// TestApplyRefusesOutOfRangeBucket: a snapshot or handoff record naming a
// bucket outside [0, NBuckets) — a wrapped-negative id included — must be
// refused, never installed as an owned bucket no routing table can hold.
func TestApplyRefusesOutOfRangeBucket(t *testing.T) {
	rows := map[string][]Row{"CART": {{Key: "k", Cols: map[string]string{"v": "1"}}}}
	for _, b := range []int{64, 1 << 40, -1} {
		p := NewPartition(0, 64, nil)
		if err := p.ApplyBucket(&BucketData{Bucket: b, Tables: rows}); err == nil {
			t.Errorf("ApplyBucket(bucket %d) accepted an out-of-range bucket", b)
		}
		if err := p.ApplyBucketPages(&BucketPages{Bucket: b}); err == nil {
			t.Errorf("ApplyBucketPages(bucket %d) accepted an out-of-range bucket", b)
		}
		if err := p.StageDelta(b, nil); err == nil {
			t.Errorf("StageDelta(bucket %d) staged an out-of-range bucket", b)
		}
		if got := p.OwnedBuckets(); len(got) != 0 || p.RowCount() != 0 {
			t.Errorf("bucket %d: partition owns %v with %d rows after refusals", b, got, p.RowCount())
		}
	}
}

func TestOwnedBucketsSorted(t *testing.T) {
	p := NewPartition(0, 16, []int{9, 3, 12})
	got := p.OwnedBuckets()
	if len(got) != 3 || got[0] != 3 || got[1] != 9 || got[2] != 12 {
		t.Errorf("OwnedBuckets = %v", got)
	}
}

func TestSizeBytes(t *testing.T) {
	p := newTestPartition()
	if p.SizeBytes() != 0 {
		t.Error("empty partition should have size 0")
	}
	if err := p.Put("CART", "k", map[string]string{"a": "xy"}); err != nil {
		t.Fatal(err)
	}
	// Accounting is exact retained memory: the first row opens the bucket's
	// first (smallest) arena page and adds one index entry.
	want := arenaMinPage + indexEntryOverhead
	if got := p.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	b := BucketOf("k", p.NBuckets())
	if got := p.BucketSizeBytes(b); got != want {
		t.Errorf("BucketSizeBytes(%d) = %d, want %d", b, got, want)
	}
	if got := p.BucketSizeBytes(b + 1); got != 0 {
		t.Errorf("BucketSizeBytes(empty) = %d, want 0", got)
	}
}

func TestRowSizeBytesCountsOverhead(t *testing.T) {
	r := Row{Key: "k", Cols: map[string]string{"a": "xy"}}
	// Payload is 4 bytes; the boxed form must also charge string headers
	// and map machinery, so the estimate is strictly larger.
	if got := r.SizeBytes(); got < 4+mapHeaderBytes+mapEntryOverhead {
		t.Errorf("Row.SizeBytes = %d, want at least %d", got, 4+mapHeaderBytes+mapEntryOverhead)
	}
	// And it must grow with payload.
	big := Row{Key: "k", Cols: map[string]string{"a": "xy", "b": string(make([]byte, 100))}}
	if big.SizeBytes() <= r.SizeBytes()+100 {
		t.Errorf("Row.SizeBytes not payload-sensitive: %d vs %d", big.SizeBytes(), r.SizeBytes())
	}
}

// Property: moving every bucket from one partition to another preserves all
// rows exactly.
func TestFullMigrationPreservesRows(t *testing.T) {
	f := func(keys []string) bool {
		src := NewPartition(0, 8, allBuckets(8))
		src.CreateTable("T")
		want := make(map[string]bool)
		for i, k := range keys {
			key := fmt.Sprintf("%s-%d", k, i)
			if err := src.Put("T", key, map[string]string{"v": key}); err != nil {
				return false
			}
			want[key] = true
		}
		dst := NewPartition(1, 8, nil)
		for b := 0; b < 8; b++ {
			pages, err := src.ExtractBucketPages(b)
			if err != nil {
				return false
			}
			if err := dst.ApplyBucketPages(pages); err != nil {
				return false
			}
		}
		if src.RowCount() != 0 || dst.RowCount() != len(want) {
			return false
		}
		for key := range want {
			r, ok, err := dst.Get("T", key)
			if err != nil || !ok || r.Cols["v"] != key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScan(t *testing.T) {
	p := newTestPartition()
	for i := 0; i < 25; i++ {
		if err := p.Put("CART", fmt.Sprintf("c%d", i), map[string]string{"i": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]bool)
	n, err := p.Scan("CART", func(r Row) bool {
		seen[r.Key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 || len(seen) != 25 {
		t.Errorf("visited %d rows, distinct %d, want 25", n, len(seen))
	}
	// Early stop.
	count := 0
	n, err = p.Scan("CART", func(r Row) bool {
		count++
		return count < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("early stop visited %d, want 5", n)
	}
	// Unknown table.
	if _, err := p.Scan("NOPE", func(Row) bool { return true }); err == nil {
		t.Error("unknown table should fail")
	}
	// The row handed to fn is a copy.
	p.Scan("CART", func(r Row) bool {
		r.Cols["i"] = "mutated"
		return false
	})
	r, _, _ := p.Get("CART", "c0")
	if r.Cols["i"] == "mutated" {
		t.Error("Scan must hand out copies")
	}
}
