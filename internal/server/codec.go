package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

//pstore:deterministic — the wire codec must be byte-deterministic: replicas
// compare checksums of encoded frames and the fuzzers assert
// encode(decode(x)) is byte-stable.

// Wire format
//
// Every message is one frame:
//
//	uvarint payloadLen | payload
//
// Request payload:
//
//	byte kind | uvarint id | kind-specific fields
//	  call:  string proc | string key | uvarint nargs | nargs × (string k, string v)
//	  read:  call fields | uvarint nsess | nsess × (uvarint part, uvarint lsn), ascending part
//	  scale: uvarint targetNodes
//	  kill-node: uvarint node
//	  ping, stats: (empty)
//
// Response payload:
//
//	uvarint id | byte flags | string err | uvarint nout | nout × (string k, string v)
//	  | uvarint latencyNanos
//	  | if flagBusy: uvarint retryAfterNanos
//	  | if flagRouted: uvarint part | uvarint lsn
//	  | if flagStats: uvarint nodes | partitions | totalRows | offeredTxns | p99Nanos
//	    | uvarint replFactor | replReplicas | replMaxLag | replRecords
//	    | replFailovers | replPromotions | replResyncs | replStaleWaits
//	    | replReplicaReads | replFallbackReads | deadNodes
//
// Strings are uvarint length + raw bytes. Everything is hand-encoded with
// no reflection; encoders append into caller-owned buffers so the steady
// state allocates nothing, and decoders validate every length against the
// remaining payload so torn or corrupt frames fail fast instead of
// over-reading.

// maxFrame bounds a single frame; larger announced payloads are rejected
// before any allocation, so a corrupt length prefix cannot OOM the peer.
const maxFrame = 16 << 20

// Response flag bits.
const (
	flagAbort byte = 1 << iota
	flagStats
	flagBusy
	flagRouted
)

// Codec errors.
var (
	errFrameTooLarge = errors.New("pstore-wire: frame exceeds size limit")
	errTruncated     = errors.New("pstore-wire: truncated payload")
	errTrailing      = errors.New("pstore-wire: trailing bytes after payload")
)

// appendUvarint appends v in unsigned varint encoding.
func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendStringMap appends a count-prefixed map of key/value strings in
// sorted key order, so the same map always encodes to the same bytes. Keys
// are staged in a stack-allocated array for the common small-arg case; the
// sort itself is allocation-free (generic slices.Sort, no interface boxing),
// keeping the encode path heap-quiet.
func appendStringMap(buf []byte, m map[string]string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	var arr [16]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendString(buf, m[k])
	}
	return buf
}

// reader tracks a decode position inside one payload.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.pos += n
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, errTruncated
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// bytes returns the next n raw bytes without copying; they alias the frame
// buffer and must be copied (e.g. by string conversion) before the frame
// is reused.
func (r *reader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.data)-r.pos) {
		return nil, errTruncated
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

func (r *reader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return intern(b), nil
}

// stringMap decodes a count-prefixed map, reusing dst when possible so a
// pooled request's Args map is not reallocated per decode.
func (r *reader) stringMap(dst map[string]string) (map[string]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos)/2 {
		// Each entry needs at least two length bytes; a count beyond that
		// bound is corrupt, reject before allocating.
		return nil, errTruncated
	}
	if n == 0 {
		return dst, nil
	}
	if dst == nil {
		dst = make(map[string]string, n)
	}
	for i := uint64(0); i < n; i++ {
		k, err := r.string()
		if err != nil {
			return nil, err
		}
		v, err := r.string()
		if err != nil {
			return nil, err
		}
		dst[k] = v
	}
	return dst, nil
}

func (r *reader) done() error {
	if r.pos != len(r.data) {
		return errTrailing
	}
	return nil
}

// appendRequest appends req as one frame (length prefix included).
func appendRequest(buf []byte, req *Request) []byte {
	var scratch [16]byte
	payload := scratch[:0]
	payload = append(payload, byte(req.Kind))
	payload = appendUvarint(payload, req.ID)
	// Body size is data dependent; encode the fixed head into scratch to
	// size the frame, then append body fields directly.
	body := len(buf)
	buf = appendUvarint(buf, 0) // placeholder, patched below
	lenAt := len(buf)
	buf = append(buf, payload...)
	switch req.Kind {
	case KindCall:
		buf = appendString(buf, req.Proc)
		buf = appendString(buf, req.Key)
		buf = appendStringMap(buf, req.Args)
	case KindRead:
		buf = appendString(buf, req.Proc)
		buf = appendString(buf, req.Key)
		buf = appendStringMap(buf, req.Args)
		buf = appendSessionVector(buf, req.Session)
	case KindScale:
		buf = appendUvarint(buf, uint64(req.TargetNodes))
	case KindKillNode:
		buf = appendUvarint(buf, uint64(req.Node))
	}
	return patchFrameLen(buf, body, lenAt)
}

// appendSessionVector writes the per-partition LSN watermark map in
// ascending partition order, so the same session always encodes to the
// same bytes.
func appendSessionVector(buf []byte, sess map[int]uint64) []byte {
	buf = appendUvarint(buf, uint64(len(sess)))
	var arr [16]int
	parts := arr[:0]
	for p := range sess {
		parts = append(parts, p)
	}
	slices.Sort(parts)
	for _, p := range parts {
		buf = appendUvarint(buf, uint64(p))
		buf = appendUvarint(buf, sess[p])
	}
	return buf
}

// sessionVector decodes the session map, reusing dst when present.
func (r *reader) sessionVector(dst map[int]uint64) (map[int]uint64, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos)/2 {
		return nil, errTruncated
	}
	if n == 0 {
		return dst, nil
	}
	if dst == nil {
		dst = make(map[int]uint64, n)
	}
	for i := uint64(0); i < n; i++ {
		p, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		lsn, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		dst[int(p)] = lsn
	}
	return dst, nil
}

// appendResponse appends resp as one frame (length prefix included).
func appendResponse(buf []byte, resp *Response) []byte {
	body := len(buf)
	buf = appendUvarint(buf, 0)
	lenAt := len(buf)
	buf = appendUvarint(buf, resp.ID)
	var flags byte
	if resp.Abort {
		flags |= flagAbort
	}
	if resp.Stats != nil {
		flags |= flagStats
	}
	if resp.Busy {
		flags |= flagBusy
	}
	if resp.Routed {
		flags |= flagRouted
	}
	buf = append(buf, flags)
	buf = appendString(buf, resp.Err)
	buf = appendStringMap(buf, resp.Out)
	buf = appendUvarint(buf, uint64(resp.Latency))
	if resp.Busy {
		buf = appendUvarint(buf, uint64(resp.RetryAfter))
	}
	if resp.Routed {
		buf = appendUvarint(buf, uint64(resp.Part))
		buf = appendUvarint(buf, resp.LSN)
	}
	if st := resp.Stats; st != nil {
		buf = appendUvarint(buf, uint64(st.Nodes))
		buf = appendUvarint(buf, uint64(st.Partitions))
		buf = appendUvarint(buf, uint64(st.TotalRows))
		buf = appendUvarint(buf, uint64(st.OfferedTxns))
		buf = appendUvarint(buf, uint64(st.P99))
		buf = appendUvarint(buf, uint64(st.ReplFactor))
		buf = appendUvarint(buf, uint64(st.ReplReplicas))
		buf = appendUvarint(buf, st.ReplMaxLag)
		buf = appendUvarint(buf, uint64(st.ReplRecords))
		buf = appendUvarint(buf, uint64(st.ReplFailovers))
		buf = appendUvarint(buf, uint64(st.ReplPromotions))
		buf = appendUvarint(buf, uint64(st.ReplResyncs))
		buf = appendUvarint(buf, uint64(st.ReplStaleWaits))
		buf = appendUvarint(buf, uint64(st.ReplReplicaReads))
		buf = appendUvarint(buf, uint64(st.ReplFallbackReads))
		buf = appendUvarint(buf, uint64(st.DeadNodes))
		buf = appendUvarint(buf, uint64(st.ReplFencedWrites))
		buf = appendUvarint(buf, uint64(st.ReplQuorumLosses))
		buf = appendUvarint(buf, uint64(st.ReplQuorumLostWrites))
		buf = appendUvarint(buf, uint64(st.ReplPromotionsBlocked))
		buf = appendUvarint(buf, uint64(st.ReplStaleDemotions))
	}
	return patchFrameLen(buf, body, lenAt)
}

// patchFrameLen rewrites the placeholder length prefix at [body,lenAt) to
// the real payload length, shifting the payload when the varint needs more
// than one byte.
func patchFrameLen(buf []byte, body, lenAt int) []byte {
	payloadLen := len(buf) - lenAt
	var pfx [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pfx[:], uint64(payloadLen))
	if n == lenAt-body {
		copy(buf[body:], pfx[:n])
		return buf
	}
	// Rare: payload ≥ 128 bytes and the placeholder was 1 byte. Grow and
	// shift the payload right to make room for the longer prefix.
	buf = append(buf, pfx[:n-(lenAt-body)]...)
	copy(buf[body+n:], buf[lenAt:])
	copy(buf[body:], pfx[:n])
	return buf
}

// decodeRequest parses one request payload. Args maps are reused from req
// when present (cleared by the caller between uses).
func decodeRequest(data []byte, req *Request) error {
	r := reader{data: data}
	k, err := r.byte()
	if err != nil {
		return err
	}
	req.Kind = Kind(k)
	if req.ID, err = r.uvarint(); err != nil {
		return err
	}
	switch req.Kind {
	case KindPing, KindStats:
	case KindCall:
		if req.Proc, err = r.string(); err != nil {
			return err
		}
		if req.Key, err = r.string(); err != nil {
			return err
		}
		if req.Args, err = r.stringMap(req.Args); err != nil {
			return err
		}
	case KindRead:
		if req.Proc, err = r.string(); err != nil {
			return err
		}
		if req.Key, err = r.string(); err != nil {
			return err
		}
		if req.Args, err = r.stringMap(req.Args); err != nil {
			return err
		}
		if req.Session, err = r.sessionVector(req.Session); err != nil {
			return err
		}
	case KindScale:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		req.TargetNodes = int(n)
	case KindKillNode:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		req.Node = int(n)
	default:
		return fmt.Errorf("pstore-wire: unknown request kind %d", k)
	}
	return r.done()
}

// decodeResponse parses one response payload.
func decodeResponse(data []byte, resp *Response) error {
	r := reader{data: data}
	var err error
	if resp.ID, err = r.uvarint(); err != nil {
		return err
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	resp.Abort = flags&flagAbort != 0
	if resp.Err, err = r.string(); err != nil {
		return err
	}
	if resp.Out, err = r.stringMap(nil); err != nil {
		return err
	}
	lat, err := r.uvarint()
	if err != nil {
		return err
	}
	resp.Latency = time.Duration(lat)
	resp.Busy = flags&flagBusy != 0
	if resp.Busy {
		ra, err := r.uvarint()
		if err != nil {
			return err
		}
		resp.RetryAfter = time.Duration(ra)
	}
	resp.Routed = flags&flagRouted != 0
	if resp.Routed {
		part, err := r.uvarint()
		if err != nil {
			return err
		}
		resp.Part = int(part)
		if resp.LSN, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&flagStats != 0 {
		var st Stats
		vals := []*int{&st.Nodes, &st.Partitions, &st.TotalRows, &st.OfferedTxns}
		for _, p := range vals {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			*p = int(v)
		}
		p99, err := r.uvarint()
		if err != nil {
			return err
		}
		st.P99 = time.Duration(p99)
		repl := []*int{&st.ReplFactor, &st.ReplReplicas}
		for _, p := range repl {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			*p = int(v)
		}
		if st.ReplMaxLag, err = r.uvarint(); err != nil {
			return err
		}
		repl = []*int{&st.ReplRecords, &st.ReplFailovers, &st.ReplPromotions,
			&st.ReplResyncs, &st.ReplStaleWaits, &st.ReplReplicaReads,
			&st.ReplFallbackReads, &st.DeadNodes,
			&st.ReplFencedWrites, &st.ReplQuorumLosses, &st.ReplQuorumLostWrites,
			&st.ReplPromotionsBlocked, &st.ReplStaleDemotions}
		for _, p := range repl {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			*p = int(v)
		}
		resp.Stats = &st
	}
	return r.done()
}

// readFrame reads one length-prefixed frame into buf (reused across calls)
// and returns the payload slice. The payload aliases buf and is only valid
// until the next call.
func readFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, errFrameTooLarge
	}
	if uint64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a torn frame, not a clean close
		}
		return nil, err
	}
	return payload, nil
}

// intern returns a string for b, deduplicating short strings through a
// bounded cache. OLTP hot paths see the same procedure names, argument
// keys, and small argument values millions of times; interning makes their
// decode allocation-free in the steady state. Long or novel strings beyond
// the cache bound fall back to a plain copy, so the cache cannot grow
// without limit. A miss against a full cache is decided under the read
// lock: once the table holds internMaxEntries strings (a key space larger
// than the cache, such as per-cart keys), misses never queue for the write
// lock.
func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	internMu.RLock()
	s, ok := internTab[string(b)] // no alloc: map lookup by []byte→string
	full := len(internTab) >= internMaxEntries
	internMu.RUnlock()
	if ok {
		return s
	}
	if full {
		return string(b)
	}
	internMu.Lock()
	if s, ok = internTab[string(b)]; !ok {
		if len(internTab) >= internMaxEntries {
			internMu.Unlock()
			return string(b)
		}
		s = string(b)
		internTab[s] = s
	}
	internMu.Unlock()
	return s
}

const (
	internMaxLen     = 40
	internMaxEntries = 8192
)

var (
	internMu  sync.RWMutex
	internTab = make(map[string]string, 256)
)
