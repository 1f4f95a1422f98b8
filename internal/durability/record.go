package durability

//pstore:deterministic — a record is encoded once and its bytes are copied
// verbatim into the WAL, the ship stream and every standby's log, which are
// then compared byte for byte; map iteration order must not leak into them.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"pstore/internal/storage"
)

// Record kinds. A command log mostly holds transactions; bucket-in/out
// records make migration ownership handoffs durable, so a partition's log
// is self-contained: replaying it never needs another partition's history.
const (
	KindTxn       byte = 1 // a committed stored-procedure invocation
	KindBucketIn  byte = 2 // bucket received from a peer, full contents inline
	KindBucketOut byte = 3 // bucket handed off to a peer
	KindPut       byte = 4 // a direct row load (cluster.LoadRow through a feed)
)

// Record is one command-log entry: the single record type of the WAL, the
// replication ship stream, a standby's own log, disk catch-up and recovery.
//
// Its payload encoding (AppendRecord) is
//
//	kind | uvarint LSN | uvarint epoch | body
//	  KindTxn:       str proc | str key | map args
//	  KindPut:       str table | str key | map cols
//	  KindBucketOut: uvarint bucket
//	  KindBucketIn:  bucket data (AppendBucketData)
//
// where str is a uvarint length and the bytes, and map is a uvarint count
// and that many (str key, str value) pairs in strictly increasing key order.
// The encoding is canonical: Decode accepts only bytes AppendRecord could
// have produced, so decode → encode reproduces its input exactly.
type Record struct {
	// LSN is the record's log sequence number, contiguous per partition:
	// the WAL seq and the replication LSN are the same number.
	LSN uint64
	// Epoch is the primary epoch that logged the record (0 when the
	// partition runs without replication).
	Epoch uint64
	Kind  byte

	Proc string            // KindTxn
	Key  string            // KindTxn, KindPut
	Args map[string]string // KindTxn args; KindPut columns
	Tab  string            // KindPut table

	Bucket int                 // KindBucketIn, KindBucketOut
	Data   *storage.BucketData // KindBucketIn
}

// Codec errors. A torn or padded payload must fail loudly — a replica or a
// recovery that silently mis-decoded a record would diverge.
var (
	ErrTruncated    = errors.New("durability: truncated record payload")
	ErrTrailing     = errors.New("durability: trailing bytes after record")
	errNonCanonical = errors.New("durability: non-canonical encoding (unsorted keys or padded varint)")
)

// AppendString appends s as a uvarint length and its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendStringMap writes a count-prefixed map in sorted key order so the
// same map always encodes to the same bytes.
func appendStringMap(buf []byte, m map[string]string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	var arr [16]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = AppendString(buf, k)
		buf = AppendString(buf, m[k])
	}
	return buf
}

// AppendBucketData writes one bucket's rows with tables and rows sorted, so
// identical state encodes to identical bytes — in bucket-in records,
// snapshot files and the ship stream's snapshot buckets alike.
func AppendBucketData(buf []byte, d *storage.BucketData) []byte {
	buf = binary.AppendUvarint(buf, uint64(d.Bucket))
	names := make([]string, 0, len(d.Tables))
	for name := range d.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		rows := append([]storage.Row(nil), d.Tables[name]...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
		buf = AppendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		for _, r := range rows {
			buf = AppendString(buf, r.Key)
			buf = appendStringMap(buf, r.Cols)
		}
	}
	return buf
}

// AppendRecord appends rec's payload (no length prefix or checksum: each
// carrier frames it its own way).
func AppendRecord(buf []byte, rec *Record) []byte {
	buf = append(buf, rec.Kind)
	buf = binary.AppendUvarint(buf, rec.LSN)
	buf = binary.AppendUvarint(buf, rec.Epoch)
	switch rec.Kind {
	case KindTxn:
		buf = AppendString(buf, rec.Proc)
		buf = AppendString(buf, rec.Key)
		buf = appendStringMap(buf, rec.Args)
	case KindPut:
		buf = AppendString(buf, rec.Tab)
		buf = AppendString(buf, rec.Key)
		buf = appendStringMap(buf, rec.Args)
	case KindBucketOut:
		buf = binary.AppendUvarint(buf, uint64(rec.Bucket))
	case KindBucketIn:
		buf = AppendBucketData(buf, rec.Data)
	}
	return buf
}

// Decode overwrites r with the record payload encodes. r.Args' map, when
// present, is cleared and refilled, so decoding a stream into one Record
// (a replica's tail, a log replay) allocates no map per record.
func (r *Record) Decode(payload []byte) error {
	args := r.Args
	clear(args)
	d := NewDecoder(payload)
	*r = Record{Kind: d.Byte(), LSN: d.Uvarint(), Epoch: d.Uvarint()}
	switch r.Kind {
	case KindTxn:
		r.Proc, r.Key, r.Args = d.Str(), d.Str(), d.stringMap(args)
	case KindPut:
		r.Tab, r.Key, r.Args = d.Str(), d.Str(), d.stringMap(args)
	case KindBucketOut:
		r.Bucket = int(d.Uvarint())
	case KindBucketIn:
		r.Data = d.BucketData()
		r.Bucket = r.Data.Bucket
	default:
		if d.Err() == nil {
			return fmt.Errorf("durability: unknown record kind %d", r.Kind)
		}
	}
	return d.Done()
}

// payloadLSN reads the LSN out of a record payload without decoding the
// rest of it.
func payloadLSN(payload []byte) (uint64, error) {
	d := NewDecoder(payload)
	d.Byte()
	lsn := d.Uvarint()
	return lsn, d.Err()
}

// Decoder reads the codec's primitives off one payload. Its first failure
// sticks — later reads return zero values — so a caller reads a whole
// message and checks Err or Done once. Nothing is read past the payload's
// end, and no count drives an allocation larger than the bytes left.
type Decoder struct {
	data []byte
	pos  int
	err  error
}

// NewDecoder returns a decoder positioned at the start of data.
func NewDecoder(data []byte) Decoder { return Decoder{data: data} }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || d.pos >= len(d.data) {
		d.fail(ErrTruncated)
		return 0
	}
	d.pos++
	return d.data[d.pos-1]
}

// Uvarint reads one minimally encoded uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	if n > 1 && d.data[d.pos+n-1] == 0 {
		d.fail(errNonCanonical)
		return 0
	}
	d.pos += n
	return v
}

// Str reads one length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err != nil || n > uint64(len(d.data)-d.pos) {
		d.fail(ErrTruncated)
		return ""
	}
	d.pos += int(n)
	return string(d.data[d.pos-int(n) : d.pos])
}

// count reads a collection length that fits in the remaining bytes at
// minSize bytes per element.
func (d *Decoder) count(minSize int) uint64 {
	n := d.Uvarint()
	if n > uint64((len(d.data)-d.pos)/minSize) {
		d.fail(ErrTruncated)
		return 0
	}
	return n
}

// stringMap reads a count-prefixed map with strictly increasing keys into
// m (empty), allocating one only when m is nil and the map is not empty.
func (d *Decoder) stringMap(m map[string]string) map[string]string {
	n := d.count(2)
	if m == nil && n > 0 {
		m = make(map[string]string, n)
	}
	prev := ""
	for i := uint64(0); i < n && d.err == nil; i++ {
		k, v := d.Str(), d.Str()
		if i > 0 && k <= prev {
			d.fail(errNonCanonical)
		}
		m[k], prev = v, k
	}
	return m
}

// BucketData reads one AppendBucketData encoding.
func (d *Decoder) BucketData() *storage.BucketData {
	out := &storage.BucketData{Bucket: int(d.Uvarint())}
	nt := d.count(2)
	out.Tables = make(map[string][]storage.Row, nt)
	prev := ""
	for i := uint64(0); i < nt && d.err == nil; i++ {
		name, nr := d.Str(), d.count(2)
		if i > 0 && name <= prev {
			d.fail(errNonCanonical)
		}
		rows := make([]storage.Row, 0, nr)
		for j := uint64(0); j < nr && d.err == nil; j++ {
			key := d.Str()
			if j > 0 && key <= rows[j-1].Key {
				d.fail(errNonCanonical)
			}
			rows = append(rows, storage.Row{Key: key, Cols: d.stringMap(map[string]string{})})
		}
		out.Tables[name], prev = rows, name
	}
	return out
}

// Rest returns the bytes not yet consumed.
func (d *Decoder) Rest() []byte { return d.data[d.pos:] }

// Err returns the first failure, if any.
func (d *Decoder) Err() error { return d.err }

// Done returns the first failure, or ErrTrailing unless the whole payload
// was consumed.
func (d *Decoder) Done() error {
	if d.err == nil && d.pos != len(d.data) {
		return ErrTrailing
	}
	return d.err
}
