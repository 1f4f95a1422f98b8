// Compact tuple encoding. A stored row is one []byte — not a boxed
// map[string]string — laid out with the same uvarint vocabulary as the wire
// codec (internal/server/codec.go), so storage, snapshots-in-flight and
// bucket shipping all speak one encoding:
//
//	uvarint keyLen | key | uvarint nFields | nFields × (uvarint fieldID |
//	                                                    uvarint valLen | val)
//
// Column names are interned once per table into a Schema — tuples carry
// small integer field IDs, never column-name strings. Fields are written in
// ascending field-ID order, so encoding the same logical row against the
// same schema is byte-stable (decode → re-encode reproduces the input
// exactly), which the codec fuzz test pins.
//
// handoff; field order must not depend on map iteration order.
//
//pstore:deterministic — tuple bytes feed size accounting and migration
package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"
)

// Schema is a per-table field-name intern table. Field IDs are dense,
// assigned in first-use order, and never reused or reordered.
//
// Ownership follows the partition: only the goroutine holding the
// partition — its executor, or a partition function running inline on a
// caller — interns new names (ids is unsynchronized). Readers on other
// goroutines — checksum scans, replication encoders holding a borrowed
// view — resolve IDs back to names through an atomically published names
// slice, which is copied on every intern and never mutated in place.
type Schema struct {
	ids   map[string]uint32
	names atomic.Pointer[[]string]
}

func newSchema() *Schema {
	s := &Schema{ids: make(map[string]uint32)}
	empty := []string{}
	s.names.Store(&empty)
	return s
}

// intern returns the field ID for name, assigning the next dense ID on
// first use. Owner goroutine only.
func (s *Schema) intern(name string) uint32 {
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := uint32(len(s.ids))
	s.ids[name] = id
	old := *s.names.Load()
	next := make([]string, len(old)+1)
	copy(next, old)
	next[len(old)] = name
	s.names.Store(&next)
	return id
}

// lookup returns the field ID for name without interning. Owner goroutine
// only.
func (s *Schema) lookup(name string) (uint32, bool) {
	id, ok := s.ids[name]
	return id, ok
}

// Name resolves a field ID to its column name. Safe from any goroutine.
func (s *Schema) Name(id uint32) string {
	names := *s.names.Load()
	if int(id) >= len(names) {
		return ""
	}
	return names[id]
}

// NumFields returns the number of interned field names. Safe from any
// goroutine (the published slice length is the intern count).
func (s *Schema) NumFields() int { return len(*s.names.Load()) }

// fieldNames returns the published id→name slice. Safe from any goroutine;
// the slice is immutable.
func (s *Schema) fieldNames() []string { return *s.names.Load() }

// sameFields reports whether two schemas assign identical IDs to identical
// names — the condition under which tuples transfer between them verbatim.
func sameFields(a, b *Schema) bool {
	if a == b {
		return true
	}
	return slices.Equal(a.fieldNames(), b.fieldNames())
}

// internSorted interns any of cols' names the schema has not seen, in
// sorted name order. Sorting makes ID assignment a function of the column
// set alone — never of Go map iteration order — so a replayed command log
// reproduces the same schema, tuple for tuple.
func (s *Schema) internSorted(cols map[string]string) {
	missing := 0
	for name := range cols {
		if _, ok := s.ids[name]; !ok {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	var arr [16]string
	add := arr[:0]
	//pstore:ignore determinism — missing names are collected, then sorted below; interning order is a function of the column set only
	for name := range cols {
		if _, ok := s.ids[name]; !ok {
			add = append(add, name)
		}
	}
	slices.Sort(add)
	for _, name := range add {
		s.intern(name)
	}
}

// tupleField is a scratch pair used to order fields by ID while encoding.
type tupleField struct {
	id  uint32
	val string
}

// appendTuple encodes (key, cols) against schema onto buf, interning any
// new column names (sorted) first. Owner goroutine only.
func appendTuple(buf []byte, s *Schema, key string, cols map[string]string) []byte {
	s.internSorted(cols)
	var arr [16]tupleField
	fields := arr[:0]
	//pstore:ignore determinism — fields are sorted by interned ID below before any byte is emitted
	for name, val := range cols {
		id, _ := s.ids[name]
		fields = append(fields, tupleField{id: id, val: val})
	}
	slices.SortFunc(fields, func(a, b tupleField) int { return int(a.id) - int(b.id) })
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(fields)))
	for _, f := range fields {
		buf = binary.AppendUvarint(buf, uint64(f.id))
		buf = binary.AppendUvarint(buf, uint64(len(f.val)))
		buf = append(buf, f.val...)
	}
	return buf
}

// tupleError marks a structurally invalid tuple. Stored tuples are encoded
// by this package and never cross a trust boundary, so corruption here is a
// program bug, not bad input — but decoders still fail loudly.
func tupleError(what string) error {
	return fmt.Errorf("storage: corrupt tuple: %s", what)
}

// bstr reinterprets b as a string without copying. Callers guarantee b is
// never mutated afterward — arena pages are append-only and tuples are
// replaced whole, so every alias handed out stays valid bytes forever.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// tupleKey returns the key encoded at the head of the tuple, aliasing the
// tuple's bytes.
func tupleKey(t []byte) string {
	klen, n := binary.Uvarint(t)
	if n <= 0 || uint64(len(t)-n) < klen {
		return ""
	}
	return bstr(t[n : n+int(klen)])
}

// TupleView is a zero-copy window onto one stored tuple. Key and Col alias
// the underlying bytes directly — no map, no string copies.
//
// Borrow rule: a view is valid for the duration of the transaction (or
// scan callback) that obtained it. Arena pages are append-only, so a leaked
// view is memory-safe — it can never observe torn bytes — but it may
// observe a value that the table has since replaced. The tupleescape vet
// check enforces that stored procedures do not retain views past return.
type TupleView struct {
	b      []byte
	schema *Schema
}

// Valid reports whether the view refers to a tuple.
func (v TupleView) Valid() bool { return v.b != nil }

// Key returns the tuple's primary key, aliasing the tuple bytes.
func (v TupleView) Key() string { return tupleKey(v.b) }

// NumCols returns the number of columns stored in the tuple.
func (v TupleView) NumCols() int {
	t := v.b
	klen, n := binary.Uvarint(t)
	if n <= 0 {
		return 0
	}
	t = t[n+int(klen):]
	nf, n := binary.Uvarint(t)
	if n <= 0 {
		return 0
	}
	return int(nf)
}

// Col returns the named column's value, aliasing the tuple bytes. It scans
// the tuple's few fields comparing names through the schema's published
// name table, so it is safe from any goroutine holding a legitimate view.
func (v TupleView) Col(name string) (string, bool) {
	names := v.schema.fieldNames()
	var out string
	found := false
	v.each(func(id uint32, val string) bool {
		if int(id) < len(names) && names[id] == name {
			out, found = val, true
			return false
		}
		return true
	})
	return out, found
}

// each iterates the tuple's (fieldID, value) pairs in stored (ascending ID)
// order; fn returning false stops early. Values alias the tuple bytes.
func (v TupleView) each(fn func(id uint32, val string) bool) {
	t := v.b
	klen, n := binary.Uvarint(t)
	if n <= 0 || uint64(len(t)-n) < klen {
		return
	}
	t = t[n+int(klen):]
	nf, n := binary.Uvarint(t)
	if n <= 0 {
		return
	}
	t = t[n:]
	for i := uint64(0); i < nf; i++ {
		id, n := binary.Uvarint(t)
		if n <= 0 {
			return
		}
		t = t[n:]
		vlen, n := binary.Uvarint(t)
		if n <= 0 || uint64(len(t)-n) < vlen {
			return
		}
		val := bstr(t[n : n+int(vlen)])
		t = t[n+int(vlen):]
		if !fn(uint32(id), val) {
			return
		}
	}
}

// Range calls fn for each (name, value) column in stored order; fn
// returning false stops early. Both strings alias borrowed bytes.
func (v TupleView) Range(fn func(name, val string) bool) {
	names := v.schema.fieldNames()
	v.each(func(id uint32, val string) bool {
		name := ""
		if int(id) < len(names) {
			name = names[id]
		}
		return fn(name, val)
	})
}

// AliasCols writes the tuple's columns into dst (allocated when nil) with
// values aliasing the borrowed bytes — the read-modify-write shape: fill a
// scratch map, override a column or two, and hand it straight back to Put,
// which encodes immediately. Use CopyCols when the map must outlive the
// transaction.
func (v TupleView) AliasCols(dst map[string]string) map[string]string {
	if dst == nil {
		dst = make(map[string]string, v.NumCols())
	}
	names := v.schema.fieldNames()
	v.each(func(id uint32, val string) bool {
		if int(id) < len(names) {
			dst[names[id]] = val
		}
		return true
	})
	return dst
}

// CopyCols materializes the tuple's columns into dst (allocated when nil)
// as owned string copies — the bridge from a borrowed view to data that
// outlives the transaction.
func (v TupleView) CopyCols(dst map[string]string) map[string]string {
	if dst == nil {
		dst = make(map[string]string, v.NumCols())
	}
	names := v.schema.fieldNames()
	v.each(func(id uint32, val string) bool {
		if int(id) < len(names) {
			dst[names[id]] = string(append([]byte(nil), val...))
		}
		return true
	})
	return dst
}

// Row materializes the view into an owned Row, copying every byte.
func (v TupleView) Row() Row {
	key := string(append([]byte(nil), tupleKey(v.b)...))
	return Row{Key: key, Cols: v.CopyCols(nil)}
}

// decodeTupleChecked walks a tuple verifying structure, returning an error
// for truncated or trailing bytes. Used by tests and the codec fuzzer.
func decodeTupleChecked(s *Schema, t []byte) (Row, error) {
	klen, n := binary.Uvarint(t)
	if n <= 0 || uint64(len(t)-n) < klen {
		return Row{}, tupleError("key")
	}
	key := string(t[n : n+int(klen)])
	t = t[n+int(klen):]
	nf, n := binary.Uvarint(t)
	if n <= 0 {
		return Row{}, tupleError("field count")
	}
	t = t[n:]
	cols := make(map[string]string, nf)
	last := int64(-1)
	for i := uint64(0); i < nf; i++ {
		id, n := binary.Uvarint(t)
		if n <= 0 {
			return Row{}, tupleError("field id")
		}
		t = t[n:]
		if int64(id) <= last {
			return Row{}, tupleError("field ids not ascending")
		}
		last = int64(id)
		vlen, n := binary.Uvarint(t)
		if n <= 0 || uint64(len(t)-n) < vlen {
			return Row{}, tupleError("value")
		}
		name := s.Name(uint32(id))
		if name == "" && s.NumFields() <= int(id) {
			return Row{}, tupleError("field id beyond schema")
		}
		cols[name] = string(t[n : n+int(vlen)])
		t = t[n+int(vlen):]
	}
	if len(t) != 0 {
		return Row{}, tupleError("trailing bytes")
	}
	return Row{Key: key, Cols: cols}, nil
}

// remapTuple re-encodes src-schema tuple t against dst, interning names as
// needed, appending onto buf. When both schemas assign identical IDs the
// caller should skip this and transfer the bytes verbatim (see sameFields).
func remapTuple(buf []byte, src, dst *Schema, t []byte) []byte {
	v := TupleView{b: t, schema: src}
	names := src.fieldNames()
	var arr [16]tupleField
	fields := arr[:0]
	v.each(func(id uint32, val string) bool {
		name := ""
		if int(id) < len(names) {
			name = names[id]
		}
		fields = append(fields, tupleField{id: dst.intern(name), val: val})
		return true
	})
	slices.SortFunc(fields, func(a, b tupleField) int { return int(a.id) - int(b.id) })
	key := tupleKey(t)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(fields)))
	for _, f := range fields {
		buf = binary.AppendUvarint(buf, uint64(f.id))
		buf = binary.AppendUvarint(buf, uint64(len(f.val)))
		buf = append(buf, f.val...)
	}
	return buf
}
