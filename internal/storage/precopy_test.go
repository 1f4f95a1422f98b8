package storage

import (
	"errors"
	"fmt"
	"testing"
)

// fillBucket inserts keys until the chosen bucket holds n rows in the given
// table, returning the keys that landed there.
func fillBucket(t *testing.T, p *Partition, table string, bucket, n int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("%s-row-%d", table, i)
		if BucketOf(k, p.NBuckets()) != bucket {
			continue
		}
		if err := p.Put(table, k, map[string]string{"v": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return keys
}

// TestPreCopyLifecycle walks the whole protocol at the storage layer: begin
// capture, copy slices while writes keep landing, drain the delta, then the
// flip — drain the residual and extract at the source, stage it and apply
// the staged pages at the destination — and checks the destination equals
// the source's final state exactly.
func TestPreCopyLifecycle(t *testing.T) {
	src := newTestPartition()
	const bucket = 5
	keys := fillBucket(t, src, "CART", bucket, 40)

	slices, err := src.BeginCapture(bucket, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !src.Capturing(bucket) {
		t.Fatal("capture should be active")
	}
	// Manifest must cover every key in bounded slices.
	manifest := 0
	for _, s := range slices {
		if len(s.Keys) > 16 {
			t.Errorf("slice holds %d keys, budget 16", len(s.Keys))
		}
		manifest += len(s.Keys)
	}
	if manifest != len(keys) {
		t.Fatalf("manifest covers %d keys, want %d", manifest, len(keys))
	}

	// Writes during the copy: update one copied row, delete another, insert
	// a brand-new one. All must be captured.
	updated, deleted := keys[0], keys[1]
	if err := src.Put("CART", updated, map[string]string{"v": "updated"}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Delete("CART", deleted); err != nil {
		t.Fatal(err)
	}
	fresh := ""
	for i := 0; fresh == ""; i++ {
		if k := fmt.Sprintf("fresh-%d", i); BucketOf(k, src.NBuckets()) == bucket {
			fresh = k
		}
	}
	if err := src.Put("CART", fresh, map[string]string{"v": "fresh"}); err != nil {
		t.Fatal(err)
	}
	if src.DeltaLen(bucket) != 3 {
		t.Fatalf("DeltaLen = %d, want 3", src.DeltaLen(bucket))
	}

	// Stream the snapshot. The deleted key is skipped (its delete is in the
	// delta); the updated key may carry either value — the delta rewrites it.
	dst := NewPartition(2, 64, nil)
	for _, s := range slices {
		batch, err := src.CopyRows(bucket, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch.Len(); i++ {
			if batch.View(i).Key() == deleted {
				t.Error("deleted key should be skipped by CopyRows")
			}
		}
		if err := dst.StageRows(bucket, batch); err != nil {
			t.Fatal(err)
		}
	}
	if dst.Owns(bucket) || dst.RowCount() != 0 {
		t.Error("staged rows must be invisible until commit")
	}

	// Drain round.
	ops, err := src.DrainDelta(bucket)
	if err != nil || src.DeltaLen(bucket) != 0 {
		t.Fatalf("DrainDelta: %d remaining, err=%v", src.DeltaLen(bucket), err)
	}
	if len(ops) != 3 {
		t.Fatalf("drained %d ops, want 3", len(ops))
	}
	if err := dst.StageDelta(bucket, ops); err != nil {
		t.Fatal(err)
	}

	// One more write before the flip — it becomes the final residual delta.
	if err := src.Put("CART", updated, map[string]string{"v": "final"}); err != nil {
		t.Fatal(err)
	}

	// The flip's source visit: drain the residual, extract the pages.
	final, err := src.DrainDelta(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 1 {
		t.Fatalf("final delta has %d ops, want 1", len(final))
	}
	pages, err := src.ExtractBucketPages(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if src.Owns(bucket) || src.Capturing(bucket) {
		t.Error("extraction must revoke ownership and end the capture")
	}
	wantRows := len(keys) - 1 + 1 // minus deleted, plus fresh
	if pages.RowCount() != wantRows {
		t.Errorf("extracted pages hold %d rows, want %d", pages.RowCount(), wantRows)
	}

	if err := dst.StageDelta(bucket, final); err != nil {
		t.Fatal(err)
	}
	// The staged pages' Data — the durable handoff record — sorts
	// deterministically and must equal the final contents.
	staged := dst.Staged(bucket)
	data := staged.Data()
	if data.RowCount() != wantRows || staged.RowCount() != wantRows {
		t.Errorf("staged pages hold %d rows (data %d), want %d", staged.RowCount(), data.RowCount(), wantRows)
	}
	for i := 1; i < len(data.Tables["CART"]); i++ {
		if data.Tables["CART"][i-1].Key >= data.Tables["CART"][i].Key {
			t.Fatal("staged Data rows not sorted by key")
		}
	}

	if err := dst.ApplyBucketPages(staged); err != nil {
		t.Fatal(err)
	}
	if !dst.Owns(bucket) || dst.Staged(bucket) != nil {
		t.Error("applying the staged pages should take ownership and end the staging")
	}
	if dst.tables["CART"].buckets[bucket] != staged.tables["CART"].rows {
		t.Error("staged pages were re-encoded on apply; want an install by reference")
	}
	if r, ok, _ := dst.Get("CART", updated); !ok || r.Cols["v"] != "final" {
		t.Errorf("updated row = %v, want v=final", r.Cols)
	}
	if _, ok, _ := dst.Get("CART", deleted); ok {
		t.Error("deleted key must not survive the move")
	}
	if r, ok, _ := dst.Get("CART", fresh); !ok || r.Cols["v"] != "fresh" {
		t.Errorf("fresh row = %v", r.Cols)
	}
}

func TestBeginCaptureErrors(t *testing.T) {
	p := newTestPartition()
	if _, err := p.BeginCapture(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginCapture(3, 0); err == nil {
		t.Error("double BeginCapture should fail")
	}
	var notOwned *ErrNotOwned
	stranger := NewPartition(1, 64, nil)
	if _, err := stranger.BeginCapture(3, 0); !errors.As(err, &notOwned) {
		t.Errorf("unowned BeginCapture: err = %v, want ErrNotOwned", err)
	}
}

func TestDrainDeltaInCaptureOrder(t *testing.T) {
	p := newTestPartition()
	const bucket = 9
	if _, err := p.BeginCapture(bucket, 0); err != nil {
		t.Fatal(err)
	}
	keys := fillBucket(t, p, "CART", bucket, 5)
	ops, err := p.DrainDelta(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != len(keys) || p.DeltaLen(bucket) != 0 {
		t.Fatalf("drained %d ops leaving %d, want %d leaving 0", len(ops), p.DeltaLen(bucket), len(keys))
	}
	for i, op := range ops {
		if op.Key != keys[i] {
			t.Fatalf("op %d is %s, want %s: drain must preserve capture order", i, op.Key, keys[i])
		}
	}
	if ops, err = p.DrainDelta(bucket); err != nil || len(ops) != 0 {
		t.Fatalf("second drain: %d ops err=%v", len(ops), err)
	}
	// Draining a non-capturing bucket is a protocol error.
	if _, err := p.DrainDelta(60); err == nil {
		t.Error("draining a non-capturing bucket should fail")
	}
}

func TestAbortCaptureLeavesBucketLive(t *testing.T) {
	p := newTestPartition()
	const bucket = 11
	keys := fillBucket(t, p, "CART", bucket, 3)
	if _, err := p.BeginCapture(bucket, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Put("CART", keys[0], map[string]string{"v": "x"}); err != nil {
		t.Fatal(err)
	}
	p.AbortCapture(bucket)
	if p.Capturing(bucket) || p.DeltaLen(bucket) != 0 {
		t.Error("abort must clear capture state")
	}
	if !p.Owns(bucket) {
		t.Error("abort must leave the bucket owned")
	}
	if r, ok, _ := p.Get("CART", keys[0]); !ok || r.Cols["v"] != "x" {
		t.Errorf("bucket content after abort = %v", r.Cols)
	}
	// A fresh capture can start after an abort.
	if _, err := p.BeginCapture(bucket, 0); err != nil {
		t.Errorf("recapture after abort: %v", err)
	}
}

// TestRollbackRestoresPagesByReference: a flip that fails after the source
// extracted the bucket rolls back by applying the extracted pages at the
// source. They carry the source tables' own schemas, so the restore hands
// the very same arenas back — and they already hold every captured write.
func TestRollbackRestoresPagesByReference(t *testing.T) {
	p := newTestPartition()
	const bucket = 21
	keys := fillBucket(t, p, "CART", bucket, 10)
	if _, err := p.BeginCapture(bucket, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Put("CART", keys[0], map[string]string{"v": "during"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DrainDelta(bucket); err != nil {
		t.Fatal(err)
	}
	pages, err := p.ExtractBucketPages(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if p.Owns(bucket) {
		t.Fatal("extraction must revoke ownership")
	}
	extracted := pages.tables["CART"].rows

	if err := p.ApplyBucketPages(pages); err != nil {
		t.Fatal(err)
	}
	if !p.Owns(bucket) {
		t.Error("rollback must restore ownership")
	}
	if p.tables["CART"].buckets[bucket] != extracted {
		t.Error("rollback re-encoded the bucket; want the extracted bucketRows back by reference")
	}
	for _, k := range keys {
		if _, ok, err := p.Get("CART", k); err != nil || !ok {
			t.Fatalf("row %s lost across extract/rollback: ok=%v err=%v", k, ok, err)
		}
	}
	if r, _, _ := p.Get("CART", keys[0]); r.Cols["v"] != "during" {
		t.Errorf("captured write lost across rollback: v = %q", r.Cols["v"])
	}
	// Rolling back onto an owned bucket is an error; the capture ended with
	// the extraction.
	if err := p.ApplyBucketPages(pages); err == nil {
		t.Error("applying pages to an owned bucket should fail")
	}
	if _, err := p.DrainDelta(bucket); err == nil {
		t.Error("extraction should have ended the capture")
	}
}

// stageFrom copies every row the source holds in bucket into the
// destination's staging, as the pre-copy stream does.
func stageFrom(t *testing.T, src, dst *Partition, bucket int) {
	t.Helper()
	slices, err := src.BeginCapture(bucket, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slices {
		batch, err := src.CopyRows(bucket, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.StageRows(bucket, batch); err != nil {
			t.Fatal(err)
		}
	}
	src.AbortCapture(bucket)
}

func TestStagingInvisibleUntilCommit(t *testing.T) {
	src := NewPartition(1, 64, allBuckets(64))
	src.CreateTable("T")
	const bucket = 2
	fillBucket(t, src, "T", bucket, 1)

	p := NewPartition(4, 64, nil)
	stageFrom(t, src, p, bucket)
	if p.Staged(bucket).RowCount() != 1 {
		t.Errorf("staged rows = %d, want 1", p.Staged(bucket).RowCount())
	}
	if p.RowCount() != 0 || p.Owns(bucket) {
		t.Error("staging must not touch live state")
	}
	p.DiscardStaged(bucket)
	if p.Staged(bucket) != nil {
		t.Error("discard must drop staged rows")
	}
	// Committing with nothing staged still takes ownership (empty bucket).
	if err := p.StageDelta(bucket, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.ApplyBucketPages(p.Staged(bucket)); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
	if !p.Owns(bucket) || p.RowCount() != 0 {
		t.Error("empty commit must still claim the bucket, and nothing else")
	}
	// Staging a bucket the partition owns is an error.
	batch, err := src.CopyRows(bucket, CopySlice{Table: "T"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.StageRows(bucket, batch); err == nil {
		t.Error("staging an owned bucket should fail")
	}
}

// TestStagingReencodesAgainstDestinationSchema: when the destination's table
// assigns field IDs differently from the source's, staged tuples are
// re-encoded on arrival — so the commit still installs the staged pages by
// reference, and they decode correctly against the destination's schema.
func TestStagingReencodesAgainstDestinationSchema(t *testing.T) {
	src := newTestPartition()
	const bucket = 17
	keys := fillBucket(t, src, "CART", bucket, 8) // source CART fields: [v]

	dst := NewPartition(3, 64, []int{0})
	dst.CreateTable("CART")
	other := ""
	for i := 0; other == ""; i++ {
		if k := fmt.Sprintf("other-%d", i); BucketOf(k, 64) == 0 {
			other = k
		}
	}
	// Destination CART fields: [a, v] — v has a different ID than at the source.
	if err := dst.Put("CART", other, map[string]string{"a": "x", "v": "y"}); err != nil {
		t.Fatal(err)
	}
	if sameFields(src.tables["CART"].schema, dst.tables["CART"].schema) {
		t.Fatal("test needs mismatched schemas")
	}

	stageFrom(t, src, dst, bucket)
	staged := dst.Staged(bucket)
	if staged.tables["CART"].schema != dst.tables["CART"].schema {
		t.Fatal("staged pages must be encoded against the destination table's schema")
	}
	if err := dst.ApplyBucketPages(staged); err != nil {
		t.Fatal(err)
	}
	if dst.tables["CART"].buckets[bucket] != staged.tables["CART"].rows {
		t.Error("staged pages were re-encoded on apply; want an install by reference")
	}
	for _, k := range keys {
		want, _, _ := src.Get("CART", k)
		got, ok, err := dst.Get("CART", k)
		if err != nil || !ok || got.Cols["v"] != want.Cols["v"] || len(got.Cols) != 1 {
			t.Fatalf("row %s = %v (ok=%v err=%v), want %v", k, got.Cols, ok, err, want.Cols)
		}
	}
}

// TestExtractBucketClearsCapture pins the interaction between extraction and
// a capture: extracting the bucket ends it.
func TestExtractBucketClearsCapture(t *testing.T) {
	p := newTestPartition()
	const bucket = 30
	if _, err := p.BeginCapture(bucket, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExtractBucketPages(bucket); err != nil {
		t.Fatal(err)
	}
	if p.Capturing(bucket) {
		t.Error("ExtractBucketPages must clear capture state")
	}
}
