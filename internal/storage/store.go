// Package storage implements the per-partition in-memory row store
// underlying the H-Store-style engine. Rows are grouped into hash buckets —
// the granularity at which the Squall-style migrator relocates data — and
// each partition owns a disjoint set of buckets.
//
// Rows are stored as compact byte-encoded tuples in per-bucket arenas (see
// tuple.go, arena.go): column names intern into a per-table Schema, tuples
// carry field IDs, and stored procedures read through zero-copy TupleViews.
// Row and BucketData remain the materialized interchange types for
// snapshots, replication shipping and tests — the durable formats are
// unchanged.
//
// A Partition is NOT safe for concurrent use: exactly one engine executor
// goroutine owns it, mirroring H-Store's serial per-partition execution
// model.
package storage

import (
	"fmt"
	"sort"

	"pstore/internal/hashing"
)

// Row is a materialized record: a primary key plus named string columns.
// Structured values (e.g. a shopping cart's line items) are stored as
// encoded documents inside a column, as in the document-oriented store the
// B2W benchmark models. Inside the store rows live as encoded tuples; Row
// is the owned, GC-managed form handed across API boundaries.
type Row struct {
	Key  string
	Cols map[string]string
}

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	cols := make(map[string]string, len(r.Cols))
	for k, v := range r.Cols {
		cols[k] = v
	}
	return Row{Key: r.Key, Cols: cols}
}

// Go runtime overhead constants for Row's footprint: string headers are
// 16 bytes, and a map entry costs roughly 48 bytes of bucket and header
// machinery beyond its key and value payloads.
const (
	stringHeaderBytes = 16
	mapEntryOverhead  = 48
	mapHeaderBytes    = 48
)

// SizeBytes estimates the row's in-memory footprint as a boxed Go value,
// including string headers and map bucket overhead — the costs the previous
// payload-only estimate omitted (~48B+ per column), which made the
// planner's memory estimates drift low on small-row tables.
func (r Row) SizeBytes() int {
	n := stringHeaderBytes + len(r.Key) + mapHeaderBytes
	for k, v := range r.Cols {
		n += mapEntryOverhead + 2*stringHeaderBytes + len(k) + len(v)
	}
	return n
}

// BucketOf maps a key to one of nBuckets hash buckets using MurmurHash 2.0,
// the paper's placement hash. Buckets are the unit of data movement.
func BucketOf(key string, nBuckets int) int {
	return hashing.PartitionOf(key, nBuckets)
}

// Partition is one logical data partition: a set of tables, each holding
// rows grouped by bucket.
type Partition struct {
	id       int
	nBuckets int
	tables   map[string]*table
	owned    map[int]bool // buckets this partition currently owns

	// capture holds per-bucket write-capture state while a pre-copy
	// migration is streaming the bucket out (see precopy.go); staged holds
	// the pages arriving for buckets this partition does not own yet. Both
	// are nil when no move is in flight.
	capture map[int]*bucketCapture
	staged  map[int]*BucketPages

	// enc is the partition's tuple-encode scratch buffer, reused across
	// Puts (the encoded bytes are copied into the bucket arena immediately).
	enc []byte

	// readOnly rejects Put/Delete — set by a replica around read-only
	// transactions so a mistakenly routed writing procedure fails loudly
	// instead of silently diverging the replica from its primary.
	readOnly bool
}

// ErrReadOnly is returned for writes against a partition in read-only mode
// (a replica serving reads).
var ErrReadOnly = fmt.Errorf("storage: partition is read-only")

// SetReadOnly toggles read-only mode. Callers synchronize with whatever
// lock owns the partition (the replica's apply mutex).
func (p *Partition) SetReadOnly(ro bool) { p.readOnly = ro }

type table struct {
	name    string
	schema  *Schema
	buckets map[int]*bucketRows
}

// bucketFor returns the table's rows for bucket, creating them if asked.
func (t *table) bucketFor(bucket int, create bool) *bucketRows {
	b := t.buckets[bucket]
	if b == nil && create {
		b = newBucketRows()
		t.buckets[bucket] = b
	}
	return b
}

// NewPartition creates an empty partition. nBuckets is the global bucket
// count shared by the whole cluster; owned lists the buckets this partition
// is responsible for.
func NewPartition(id, nBuckets int, owned []int) *Partition {
	p := &Partition{
		id:       id,
		nBuckets: nBuckets,
		tables:   make(map[string]*table),
		owned:    make(map[int]bool, len(owned)),
	}
	for _, b := range owned {
		p.owned[b] = true
	}
	return p
}

// ID returns the partition's identifier.
func (p *Partition) ID() int { return p.id }

// NBuckets returns the global bucket count.
func (p *Partition) NBuckets() int { return p.nBuckets }

// Owns reports whether the partition currently owns the bucket.
func (p *Partition) Owns(bucket int) bool { return p.owned[bucket] }

// OwnsKey reports whether the partition owns the key's bucket.
func (p *Partition) OwnsKey(key string) bool {
	return p.owned[BucketOf(key, p.nBuckets)]
}

// OwnedBuckets returns the partition's buckets in ascending order.
func (p *Partition) OwnedBuckets() []int {
	out := make([]int, 0, len(p.owned))
	for b := range p.owned {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// CreateTable ensures a table exists.
func (p *Partition) CreateTable(name string) {
	if _, ok := p.tables[name]; !ok {
		p.tables[name] = &table{name: name, schema: newSchema(), buckets: make(map[int]*bucketRows)}
	}
}

// ErrNotOwned is returned for operations on keys whose bucket is not owned
// by the partition — the signal that routing raced with a migration.
type ErrNotOwned struct {
	Partition int
	Bucket    int
	Key       string
}

func (e *ErrNotOwned) Error() string {
	return fmt.Sprintf("storage: partition %d does not own bucket %d (key %q)", e.Partition, e.Bucket, e.Key)
}

// IsNotOwned reports whether err is (or wraps) an ErrNotOwned. Unlike
// errors.As with a local target, this never allocates — it sits on the
// transaction hot path, where every routing decision passes through it.
func IsNotOwned(err error) bool {
	for err != nil {
		if _, ok := err.(*ErrNotOwned); ok {
			return true
		}
		switch x := err.(type) {
		case interface{ Unwrap() error }:
			err = x.Unwrap()
		default:
			return false
		}
	}
	return false
}

func (p *Partition) checkOwned(key string) (int, error) {
	b := BucketOf(key, p.nBuckets)
	if !p.owned[b] {
		return b, &ErrNotOwned{Partition: p.id, Bucket: b, Key: key}
	}
	return b, nil
}

// Get returns the row with the key from the table, materialized as an owned
// Row. Hot paths that only read should prefer GetView.
func (p *Partition) Get(tableName, key string) (Row, bool, error) {
	v, ok, err := p.GetView(tableName, key)
	if err != nil || !ok {
		return Row{}, ok, err
	}
	return v.Row(), true, nil
}

// GetView returns a zero-copy view of the row with the key. The view
// borrows the bucket's arena bytes: valid for the duration of the
// transaction that requested it, never to be retained past txn return (the
// tupleescape vet check enforces this for stored procedures).
func (p *Partition) GetView(tableName, key string) (TupleView, bool, error) {
	b, err := p.checkOwned(key)
	if err != nil {
		return TupleView{}, false, err
	}
	t, ok := p.tables[tableName]
	if !ok {
		return TupleView{}, false, fmt.Errorf("storage: unknown table %q", tableName)
	}
	rows := t.buckets[b]
	if rows == nil {
		return TupleView{}, false, nil
	}
	tuple := rows.get(key)
	if tuple == nil {
		return TupleView{}, false, nil
	}
	return TupleView{b: tuple, schema: t.schema}, true, nil
}

// Put inserts or replaces the row with the key in the table. cols is
// encoded immediately and never retained — callers may reuse the map.
func (p *Partition) Put(tableName, key string, cols map[string]string) error {
	if p.readOnly {
		return ErrReadOnly
	}
	b, err := p.checkOwned(key)
	if err != nil {
		return err
	}
	t, ok := p.tables[tableName]
	if !ok {
		return fmt.Errorf("storage: unknown table %q", tableName)
	}
	p.enc = appendTuple(p.enc[:0], t.schema, key, cols)
	rows := t.bucketFor(b, true)
	rows.putTuple(p.enc)
	if p.capture != nil {
		// The arena alias is stable (pages are append-only), so the delta
		// can share bytes with the live table instead of cloning the row.
		p.captureWrite(b, DeltaOp{Table: tableName, Key: key,
			Tuple: rows.get(key), Schema: t.schema})
	}
	return nil
}

// Delete removes the row with the key from the table, reporting whether it
// existed.
func (p *Partition) Delete(tableName, key string) (bool, error) {
	if p.readOnly {
		return false, ErrReadOnly
	}
	b, err := p.checkOwned(key)
	if err != nil {
		return false, err
	}
	t, ok := p.tables[tableName]
	if !ok {
		return false, fmt.Errorf("storage: unknown table %q", tableName)
	}
	rows := t.buckets[b]
	if rows == nil || !rows.delete(key) {
		return false, nil
	}
	if p.capture != nil {
		p.captureWrite(b, DeltaOp{Table: tableName, Key: key, Delete: true})
	}
	return true, nil
}

// Scan iterates over every row of a table in unspecified order, calling fn
// with each row; fn returning false stops the scan early. The row passed to
// fn is an owned copy, safe to retain. Scan reports the number of rows
// visited. Hot read paths should prefer ScanViews.
func (p *Partition) Scan(tableName string, fn func(Row) bool) (int, error) {
	return p.ScanViews(tableName, func(v TupleView) bool { return fn(v.Row()) })
}

// ScanViews iterates over every row of a table as zero-copy views, in
// unspecified order; fn returning false stops early. Views are valid only
// within the callback.
func (p *Partition) ScanViews(tableName string, fn func(TupleView) bool) (int, error) {
	t, ok := p.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("storage: unknown table %q", tableName)
	}
	visited := 0
	for _, rows := range t.buckets {
		for _, tuple := range rows.index {
			visited++
			if !fn(TupleView{b: tuple, schema: t.schema}) {
				return visited, nil
			}
		}
	}
	return visited, nil
}

// RowCount returns the total number of rows across all tables.
func (p *Partition) RowCount() int {
	n := 0
	for _, t := range p.tables {
		for _, rows := range t.buckets {
			n += rows.len()
		}
	}
	return n
}

// BucketRowCount returns the number of rows stored in the bucket across all
// tables.
func (p *Partition) BucketRowCount(bucket int) int {
	n := 0
	for _, t := range p.tables {
		if rows := t.buckets[bucket]; rows != nil {
			n += rows.len()
		}
	}
	return n
}

// SizeBytes returns the partition's exact retained data footprint: arena
// pages plus index overhead, summed across tables and buckets. Unlike the
// old per-row estimate this is the memory actually held, so the planner's
// load accounting no longer drifts.
func (p *Partition) SizeBytes() int {
	n := 0
	for _, t := range p.tables {
		for _, rows := range t.buckets {
			n += rows.sizeBytes()
		}
	}
	return n
}

// BucketSizeBytes returns the bucket's exact retained footprint across all
// tables — the per-bucket load number the migration planner weighs.
func (p *Partition) BucketSizeBytes(bucket int) int {
	n := 0
	for _, t := range p.tables {
		if rows := t.buckets[bucket]; rows != nil {
			n += rows.sizeBytes()
		}
	}
	return n
}

// BucketData is the materialized contents of one bucket — the serializable
// interchange form used by snapshots, handoff records and replication
// shipping. Its JSON shape is part of the durable format and predates the
// tuple layout; materializing it costs a decode, so live movement paths use
// BucketPages instead.
type BucketData struct {
	Bucket int
	Tables map[string][]Row
}

// RowCount returns the number of rows in the extracted bucket.
func (d *BucketData) RowCount() int {
	n := 0
	for _, rows := range d.Tables {
		n += len(rows)
	}
	return n
}

// BucketPages is one bucket's encoded pages unhooked from (or bound for) a
// partition: per-table arenas handed off by reference, with each table's
// schema riding along to decode them. Moving a bucket this way is O(tables)
// pointer moves — no per-row cloning — and the receiving partition
// re-encodes only if its schema assigns different field IDs. A partition's
// staged pages for an incoming bucket are BucketPages too (see precopy.go).
type BucketPages struct {
	Bucket int
	tables map[string]*bucketPage
}

type bucketPage struct {
	schema *Schema
	rows   *bucketRows
}

// RowCount returns the number of rows carried by the pages.
func (bp *BucketPages) RowCount() int {
	n := 0
	for _, pg := range bp.tables {
		n += pg.rows.len()
	}
	return n
}

// Data materializes the pages as sorted BucketData — the deterministic
// interchange form snapshots and the durable handoff record encode. Cost is
// O(rows); only paths that must serialize pay it.
func (bp *BucketPages) Data() *BucketData {
	data := &BucketData{Bucket: bp.Bucket, Tables: make(map[string][]Row, len(bp.tables))}
	//pstore:ignore determinism — rows are sorted by key below before encoding
	for name, pg := range bp.tables {
		out := make([]Row, 0, pg.rows.len())
		//pstore:ignore determinism — index iteration lands in out, which is sorted below
		for _, tuple := range pg.rows.index {
			out = append(out, TupleView{b: tuple, schema: pg.schema}.Row())
		}
		sortRowsByKey(out)
		data.Tables[name] = out
	}
	return data
}

// pages returns the bucket's pages as BucketPages aliasing the live tables.
func (p *Partition) pages(bucket int) *BucketPages {
	bp := &BucketPages{Bucket: bucket, tables: make(map[string]*bucketPage)}
	for name, t := range p.tables {
		if rows, ok := t.buckets[bucket]; ok {
			bp.tables[name] = &bucketPage{schema: t.schema, rows: rows}
		}
	}
	return bp
}

// ExtractBucketPages removes the bucket's encoded pages from the partition
// and revokes ownership: O(tables) pointer moves regardless of row count.
// Any in-flight capture state for the bucket is discarded.
func (p *Partition) ExtractBucketPages(bucket int) (*BucketPages, error) {
	if !p.owned[bucket] {
		return nil, &ErrNotOwned{Partition: p.id, Bucket: bucket}
	}
	bp := p.pages(bucket)
	for name := range bp.tables {
		delete(p.tables[name].buckets, bucket)
	}
	delete(p.owned, bucket)
	delete(p.capture, bucket)
	return bp, nil
}

// seedSchema gives an empty table schema src's field order, so tuples
// encoded against src install verbatim.
func (t *table) seedSchema(src *Schema) {
	if t.schema.NumFields() == 0 {
		for _, name := range src.fieldNames() {
			t.schema.intern(name)
		}
	}
}

// adoptRows installs src-encoded rows into the table's bucket. When the
// table's schema assigns the same field IDs as the source (always true for
// a fresh table, which adopts the source's field order, and for pages
// encoded against this very table) the bucketRows transfer by reference;
// otherwise every tuple is re-encoded against the table's schema — O(rows)
// but still no per-row map allocation.
func (t *table) adoptRows(bucket int, src *Schema, rows *bucketRows) {
	t.seedSchema(src)
	if sameFields(src, t.schema) && t.buckets[bucket] == nil {
		t.buckets[bucket] = rows
		return
	}
	dst := t.bucketFor(bucket, true)
	var buf []byte
	for _, tuple := range rows.index {
		if sameFields(src, t.schema) {
			dst.putTuple(tuple)
			continue
		}
		buf = remapTuple(buf[:0], src, t.schema, tuple)
		dst.putTuple(buf)
	}
}

// checkClaim refuses to take a bucket that is out of range — a corrupt
// snapshot or handoff record naming one would otherwise become an owned
// bucket no routing table can hold — or already owned, which would clobber
// its data.
func (p *Partition) checkClaim(bucket int) error {
	if bucket < 0 || bucket >= p.nBuckets {
		return fmt.Errorf("storage: bucket %d out of range [0, %d)", bucket, p.nBuckets)
	}
	if p.owned[bucket] {
		return fmt.Errorf("storage: partition %d already owns bucket %d", p.id, bucket)
	}
	return nil
}

// ApplyBucketPages installs pages and takes ownership: extracted pages
// arriving at a new home or returning to their source, or a migration's
// staged pages at its destination, whose staging it ends.
func (p *Partition) ApplyBucketPages(bp *BucketPages) error {
	if err := p.checkClaim(bp.Bucket); err != nil {
		return err
	}
	for name, pg := range bp.tables {
		p.CreateTable(name)
		p.tables[name].adoptRows(bp.Bucket, pg.schema, pg.rows)
	}
	p.owned[bp.Bucket] = true
	delete(p.staged, bp.Bucket)
	return nil
}

// DropBucket discards the bucket's rows and revokes ownership without
// materializing anything — for callers that extract only to throw away
// (recovery discarding a re-inherited bucket, a replica resyncing). Any
// in-flight capture state is discarded too.
func (p *Partition) DropBucket(bucket int) error {
	if !p.owned[bucket] {
		return &ErrNotOwned{Partition: p.id, Bucket: bucket}
	}
	for _, t := range p.tables {
		delete(t.buckets, bucket)
	}
	delete(p.owned, bucket)
	delete(p.capture, bucket)
	return nil
}

// CopyBucket returns the bucket's rows materialized in sorted key order
// without disturbing the partition — what the durability snapshot encoder
// writes. Copying a bucket the partition does not own is an error.
func (p *Partition) CopyBucket(bucket int) (*BucketData, error) {
	if !p.owned[bucket] {
		return nil, &ErrNotOwned{Partition: p.id, Bucket: bucket}
	}
	return p.pages(bucket).Data(), nil
}

// ApplyBucket installs the bucket's rows and takes ownership. Applying a
// bucket the partition already owns, or one outside [0, NBuckets), is an
// error.
func (p *Partition) ApplyBucket(data *BucketData) error {
	if err := p.checkClaim(data.Bucket); err != nil {
		return err
	}
	//pstore:ignore determinism — interning order affects only in-memory field IDs; tuple bytes never reach a durable encoding unsorted
	for name, rows := range data.Tables {
		p.CreateTable(name)
		t := p.tables[name]
		dst := t.bucketFor(data.Bucket, true)
		for _, r := range rows {
			p.enc = appendTuple(p.enc[:0], t.schema, r.Key, r.Cols)
			dst.putTuple(p.enc)
		}
	}
	p.owned[data.Bucket] = true
	return nil
}

// Tables returns the table names in sorted order.
func (p *Partition) Tables() []string {
	out := make([]string, 0, len(p.tables))
	for name := range p.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
