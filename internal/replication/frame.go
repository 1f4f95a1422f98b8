package replication

//pstore:deterministic — shipped frames carry the durability codec's record
// payloads verbatim; nothing here may reorder or re-encode them.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"pstore/internal/durability"
)

// Ship-stream message kinds, kept disjoint from record kinds so a frame's
// first byte always identifies it.
const (
	msgSubscribe byte = 100 // replica → hub: part, epoch, fromLSN
	msgHello     byte = 101 // hub → replica: epoch, startLSN, optional snapshot header
	msgError     byte = 102 // hub → replica: refusal with reason
	msgBucket    byte = 103 // hub → replica: one snapshot bucket
	msgAck       byte = 104 // replica → hub: applied LSN (cumulative: highest contiguous)
	msgHeartbeat byte = 105 // hub → replica: idle-stream liveness beacon
	msgBatch     byte = 106 // hub → replica: multi-record envelope (count + record frames)
)

// maxShipFrame bounds a single shipped frame; a longer length prefix is
// corrupt and fails with errShipTooLarge before any allocation.
const maxShipFrame = 64 << 20

var errShipTooLarge = errors.New("replication: frame exceeds size limit")

// encodePool recycles the scratch buffers encodeFrame stages payloads in.
// Only the scratch is pooled — the returned frame must be a fresh
// allocation, because the feed retains it in its catch-up buffer and every
// subscriber queue holds a reference.
var encodePool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// encodeFrame encodes rec once, as one ship frame — a uvarint length prefix
// and the record payload — in a single right-sized allocation: the payload
// is staged in a pooled scratch (its length determines the prefix), then
// copied once into the frame the feed retains. The returned payload slices
// the frame: it is what the feed hands its durability manager, so the WAL
// holds the very bytes the stream ships.
func encodeFrame(rec *durability.Record) (frame, payload []byte) {
	sp := encodePool.Get().(*[]byte)
	p := durability.AppendRecord((*sp)[:0], rec)
	frame = binary.AppendUvarint(make([]byte, 0, len(p)+binary.MaxVarintLen32), uint64(len(p)))
	hdr := len(frame)
	frame = append(frame, p...)
	*sp = p[:0]
	encodePool.Put(sp)
	return frame, frame[hdr:]
}

// appendBatchEnvelope appends one length-prefixed msgBatch frame wrapping
// the given record frames (each already length-prefixed): the multi-record
// ship envelope. nbytes must be the summed length of the frames. The
// caller hands the result to a single writer call, so a burst of records
// costs one syscall, one standby fsync and one cumulative ack.
//
// Envelope payload layout: msgBatch, uvarint record count, then the record
// frames verbatim — a decoder walks the inner length prefixes and must
// consume the payload exactly (count and bytes both checked), so a torn or
// padded envelope fails loudly like every other frame.
func appendBatchEnvelope(buf []byte, frames [][]byte, nbytes int) []byte {
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], uint64(len(frames)))
	buf = binary.AppendUvarint(buf, uint64(1+n+nbytes))
	buf = append(buf, msgBatch)
	buf = append(buf, cnt[:n]...)
	for _, f := range frames {
		buf = append(buf, f...)
	}
	return buf
}

// splitBatch validates a msgBatch envelope header and returns the declared
// record count plus the concatenated record frames.
func splitBatch(payload []byte) (count uint64, frames []byte, err error) {
	d := durability.NewDecoder(payload)
	if err := expectKind(&d, msgBatch, "batch envelope"); err != nil {
		return 0, nil, err
	}
	if count = d.Uvarint(); d.Err() != nil {
		return 0, nil, d.Err()
	}
	if count == 0 {
		return 0, nil, fmt.Errorf("replication: empty batch envelope")
	}
	if count > uint64(len(payload)) {
		return 0, nil, durability.ErrTruncated
	}
	return count, d.Rest(), nil
}

// expectKind reads a message's kind byte, failing unless it is want.
func expectKind(d *durability.Decoder, want byte, what string) error {
	if kind := d.Byte(); d.Err() == nil && kind != want {
		return fmt.Errorf("replication: expected %s, got message kind %d", what, kind)
	}
	return d.Err()
}

// nextBatchRecord slices one record payload off the envelope's remaining
// frame bytes. A length prefix running past the envelope is a torn batch.
func nextBatchRecord(frames []byte) (payload, rest []byte, err error) {
	n, sz := binary.Uvarint(frames)
	if sz <= 0 {
		return nil, nil, durability.ErrTruncated
	}
	if n > maxShipFrame {
		return nil, nil, errShipTooLarge
	}
	if n > uint64(len(frames)-sz) {
		return nil, nil, durability.ErrTruncated
	}
	return frames[sz : sz+int(n)], frames[sz+int(n):], nil
}

// readShipFrame reads one length-prefixed frame into buf (reused across
// calls) and returns the payload slice, valid until the next call. A short
// read returns io.ErrUnexpectedEOF — a torn frame, never a silent
// truncation.
func readShipFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxShipFrame {
		return nil, errShipTooLarge
	}
	if uint64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}
