// Pre-copy live-migration primitives. Moving a bucket in one extract and
// one apply would unhook it for the whole handoff; the primitives here let
// the migrator copy it while it keeps serving and unhook it only for the
// residual:
//
//  1. BeginCapture marks the bucket migrating and starts recording every
//     subsequent Put/Delete against it into an ordered per-bucket delta
//     log, returning a manifest of bounded CopySlices.
//  2. CopyRows streams each slice (one executor visit, sized by the
//     engine's migration slice budget) to the destination as a
//     TupleBatch — encoded tuples aliased straight out of the bucket
//     arena, no per-row cloning — which the destination
//     accumulates with StageRows into staged BucketPages, outside its live
//     tables, invisible to transactions.
//  3. DrainDelta pops the captured writes in rounds; StageDelta overlays
//     them on the staged tuples in capture order, so the staged pages
//     converge on the live bucket while the bucket keeps serving.
//  4. The flip is the only stop-the-world moment: a last DrainDelta takes
//     the residual and ExtractBucketPages unhooks the bucket's arenas
//     (O(tables) pointer moves) and revokes ownership. The destination
//     stages the residual and installs its staged pages with
//     ApplyBucketPages — by reference, since they are encoded against its
//     own tables' schemas. Rollback is ApplyBucketPages of the extracted
//     pages at the source, by reference for the same reason.
//
// Replaying a delta is idempotent (puts are last-writer-wins, deletes are
// absence), so a row copied after a captured write converges to the same
// state once the delta lands.
package storage

import (
	"fmt"
	"sort"
)

// DeltaOp is one captured write against a migrating bucket, in capture
// order. Tuple is valid when Delete is false: an alias of the bucket's
// append-only arena bytes (stable for the op's lifetime), decoded against
// Schema — safe to hand to another partition, which re-encodes it against
// its own schema as it stages.
type DeltaOp struct {
	Table  string
	Key    string
	Tuple  []byte
	Schema *Schema
	Delete bool
}

// CopySlice identifies a bounded chunk of a migrating bucket's rows: one
// table and at most the slice budget of keys, as of capture time. Keys that
// vanish before their slice is copied are simply skipped — their deletion
// is in the delta.
type CopySlice struct {
	Table string
	Keys  []string
}

// TupleBatch is one copied slice in flight: encoded tuples aliasing the
// source bucket's arena pages, plus the schema that decodes them. The
// aliases are stable (pages are append-only), so the batch crosses to the
// destination executor without copying a byte.
type TupleBatch struct {
	Table  string
	Schema *Schema
	Tuples [][]byte
}

// Len returns the number of tuples in the batch.
func (tb *TupleBatch) Len() int { return len(tb.Tuples) }

// View returns a zero-copy view of the i'th tuple.
func (tb *TupleBatch) View(i int) TupleView {
	return TupleView{b: tb.Tuples[i], schema: tb.Schema}
}

// bucketCapture is one migrating bucket's write-capture state.
type bucketCapture struct {
	delta []DeltaOp
}

// BeginCapture marks the bucket as migrating and starts capturing writes to
// it. It returns the copy manifest: every (table, key) present right now,
// pre-chunked into slices of at most sliceRows keys (one slice per table if
// sliceRows ≤ 0). The manifest plus the delta captured from this moment on
// is exactly the bucket's final contents.
func (p *Partition) BeginCapture(bucket, sliceRows int) ([]CopySlice, error) {
	if !p.owned[bucket] {
		return nil, &ErrNotOwned{Partition: p.id, Bucket: bucket}
	}
	if p.capture[bucket] != nil {
		return nil, fmt.Errorf("storage: partition %d already capturing bucket %d", p.id, bucket)
	}
	if p.capture == nil {
		p.capture = make(map[int]*bucketCapture)
	}
	p.capture[bucket] = &bucketCapture{}
	var slices []CopySlice
	//pstore:ignore determinism — manifest order only shapes in-flight slice boundaries; staging is key-addressed, so the landed content is order-independent
	for name, t := range p.tables {
		rows := t.buckets[bucket]
		if rows == nil || rows.len() == 0 {
			continue
		}
		keys := make([]string, 0, rows.len())
		//pstore:ignore determinism — same: keys feed the copy manifest, not a durable encoding
		for k := range rows.index {
			// Index keys alias arena bytes; manifest keys must outlive any
			// overwrite of those rows, so copy them out.
			keys = append(keys, string(append([]byte(nil), k...)))
		}
		step := sliceRows
		if step <= 0 {
			step = len(keys)
		}
		for i := 0; i < len(keys); i += step {
			slices = append(slices, CopySlice{Table: name, Keys: keys[i:min(i+step, len(keys))]})
		}
	}
	return slices, nil
}

// Capturing reports whether the bucket has an active write capture.
func (p *Partition) Capturing(bucket int) bool { return p.capture[bucket] != nil }

// captureWrite records a write against a migrating bucket. Called from
// Put/Delete after the write succeeded; a no-op for buckets not capturing.
func (p *Partition) captureWrite(bucket int, op DeltaOp) {
	c := p.capture[bucket]
	if c == nil {
		return
	}
	c.delta = append(c.delta, op)
}

// CopyRows gathers the slice's still-present rows as a zero-copy
// TupleBatch. Keys deleted since the manifest was built are skipped (their
// delete is in the delta); rows overwritten since carry the newer value,
// which a later delta replay rewrites idempotently.
func (p *Partition) CopyRows(bucket int, s CopySlice) (*TupleBatch, error) {
	if !p.owned[bucket] {
		return nil, &ErrNotOwned{Partition: p.id, Bucket: bucket}
	}
	t, ok := p.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", s.Table)
	}
	batch := &TupleBatch{Table: s.Table, Schema: t.schema, Tuples: make([][]byte, 0, len(s.Keys))}
	rows := t.buckets[bucket]
	if rows == nil {
		return batch, nil
	}
	for _, k := range s.Keys {
		if tuple := rows.get(k); tuple != nil {
			batch.Tuples = append(batch.Tuples, tuple)
		}
	}
	return batch, nil
}

// DeltaLen returns the number of captured-but-undrained writes for the
// bucket (zero when not capturing).
func (p *Partition) DeltaLen(bucket int) int {
	if c := p.capture[bucket]; c != nil {
		return len(c.delta)
	}
	return 0
}

// DrainDelta pops every captured write in capture order. Draining a bucket
// that is not capturing is an error — it means the protocol lost track of
// the bucket.
func (p *Partition) DrainDelta(bucket int) ([]DeltaOp, error) {
	c := p.capture[bucket]
	if c == nil {
		return nil, fmt.Errorf("storage: partition %d not capturing bucket %d", p.id, bucket)
	}
	ops := c.delta
	c.delta = nil
	return ops, nil
}

// AbortCapture discards the bucket's capture state and delta. The bucket
// stays owned and fully live — aborting a pre-copy costs nothing.
func (p *Partition) AbortCapture(bucket int) { delete(p.capture, bucket) }

// stagedPage returns the staged page for a table, creating it encoded
// against the destination table's own schema (creating the table too), so
// ApplyBucketPages installs it without any re-encoding. Seeding an empty
// schema from the source's field order keeps the verbatim copy path hot.
func (p *Partition) stagedPage(bp *BucketPages, tableName string, src *Schema) *bucketPage {
	p.CreateTable(tableName)
	t := p.tables[tableName]
	t.seedSchema(src)
	pg := bp.tables[tableName]
	if pg == nil {
		pg = &bucketPage{schema: t.schema, rows: newBucketRows()}
		bp.tables[tableName] = pg
	}
	return pg
}

// stagePut re-encodes one source-schema tuple against the staged page's
// schema (a verbatim arena copy when the schemas already agree) and indexes
// it.
func (p *Partition) stagePut(pg *bucketPage, src *Schema, tuple []byte) {
	if sameFields(src, pg.schema) {
		pg.rows.putTuple(tuple)
		return
	}
	p.enc = remapTuple(p.enc[:0], src, pg.schema, tuple)
	pg.rows.putTuple(p.enc)
}

// StageRows accumulates a copied batch for a bucket the partition does not
// own yet. Staged tuples live outside the live tables: invisible to
// transactions, scans, counts and checksums until ApplyBucketPages installs
// Staged(bucket).
func (p *Partition) StageRows(bucket int, batch *TupleBatch) error {
	bp, err := p.stagingFor(bucket)
	if err != nil {
		return err
	}
	pg := p.stagedPage(bp, batch.Table, batch.Schema)
	for _, tuple := range batch.Tuples {
		p.stagePut(pg, batch.Schema, tuple)
	}
	return nil
}

// StageDelta overlays captured writes, in capture order, on the staged
// tuples. After the final delta is staged the staged pages equal the
// bucket's live contents at extraction time.
func (p *Partition) StageDelta(bucket int, ops []DeltaOp) error {
	bp, err := p.stagingFor(bucket)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if op.Delete {
			if pg := bp.tables[op.Table]; pg != nil {
				pg.rows.delete(op.Key)
			}
			continue
		}
		p.stagePut(p.stagedPage(bp, op.Table, op.Schema), op.Schema, op.Tuple)
	}
	return nil
}

func (p *Partition) stagingFor(bucket int) (*BucketPages, error) {
	if err := p.checkClaim(bucket); err != nil {
		return nil, err
	}
	if p.staged == nil {
		p.staged = make(map[int]*BucketPages)
	}
	bp := p.staged[bucket]
	if bp == nil {
		bp = &BucketPages{Bucket: bucket, tables: make(map[string]*bucketPage)}
		p.staged[bucket] = bp
	}
	return bp, nil
}

// Staged returns the pages staged for the bucket, or nil when nothing is.
// They are encoded against this partition's own schemas: Data is the
// durable handoff record, and ApplyBucketPages commits them by reference.
func (p *Partition) Staged(bucket int) *BucketPages { return p.staged[bucket] }

// DiscardStaged drops everything staged for the bucket — the destination
// half of aborting a pre-copy move.
func (p *Partition) DiscardStaged(bucket int) { delete(p.staged, bucket) }

// sortRowsByKey orders rows deterministically for snapshot and handoff
// encoding; only the durable encoders pay for determinism.
func sortRowsByKey(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
}
