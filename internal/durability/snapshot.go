package durability

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"pstore/internal/storage"
)

// A snapshot file is a sequence of WAL frames (len32|crc32|payload): one
// header, then one AppendBucketData payload per owned bucket — the same
// bucket encoding bucket-in records and the ship stream use. The header
// payload is
//
//	uvarint partition | uvarint nbuckets | uvarint seg | uvarint seq |
//	uvarint ntables | ntables × str table | uvarint buckets
//
// where seg is the first WAL segment replay resumes from and seq the LSN the
// snapshot covers. Files are written to a temp name, fsynced and renamed
// into place, so a snapshot is either complete or absent — a torn frame in
// one is corruption, not a tail. The file is named after seg, making
// snapshot/segment pairing visible in a directory listing.

// writeSnapshot persists the partition's full contents. The caller must
// hold exclusive access to the partition (a partition function run by the
// executor's Do, or recovery before executors start).
func writeSnapshot(dir string, part *storage.Partition, seg int, seq uint64) error {
	tmp := filepath.Join(dir, snapshotName(seg)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	err = writeSnapshotFrames(bufio.NewWriterSize(f, 1<<16), part, seg, seq)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName(seg))); err != nil {
		return err
	}
	return syncDir(dir)
}

func writeSnapshotFrames(w *bufio.Writer, part *storage.Partition, seg int, seq uint64) error {
	tables, owned := part.Tables(), part.OwnedBuckets()
	buf := binary.AppendUvarint(nil, uint64(part.ID()))
	buf = binary.AppendUvarint(buf, uint64(part.NBuckets()))
	buf = binary.AppendUvarint(buf, uint64(seg))
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(tables)))
	for _, t := range tables {
		buf = AppendString(buf, t)
	}
	buf = binary.AppendUvarint(buf, uint64(len(owned)))
	if err := writeFrame(w, buf); err != nil {
		return err
	}
	for _, b := range owned {
		data, err := part.CopyBucket(b)
		if err != nil {
			return err
		}
		buf = AppendBucketData(buf[:0], data)
		if err := writeFrame(w, buf); err != nil {
			return err
		}
	}
	return w.Flush()
}

// loadSnapshot restores the latest snapshot in dir into the (empty)
// partition, returning the WAL segment replay resumes from and the LSN the
// snapshot covers. With no snapshot present it returns (0, 0, false, nil):
// replay starts from the beginning of the log.
func loadSnapshot(dir string, part *storage.Partition) (seg int, seq uint64, found bool, err error) {
	snaps, err := listNumbered(dir, "snap-", ".snap")
	if err != nil {
		return 0, 0, false, err
	}
	if len(snaps) == 0 {
		return 0, 0, false, nil
	}
	name := snapshotName(snaps[len(snaps)-1])
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	seg, seq, err = readSnapshot(bufio.NewReaderSize(f, 1<<16), part)
	if err != nil {
		return 0, 0, false, fmt.Errorf("durability: snapshot %s: %w", name, err)
	}
	return seg, seq, true, nil
}

// readSnapshot applies one snapshot file's frames to part.
func readSnapshot(r *bufio.Reader, part *storage.Partition) (seg int, seq uint64, err error) {
	var buf []byte
	payload, err := readFrame(r, &buf)
	d := NewDecoder(payload)
	id, nBuckets, hseg, seq := d.Uvarint(), d.Uvarint(), d.Uvarint(), d.Uvarint()
	tables := make([]string, d.count(1))
	for i := range tables {
		tables[i] = d.Str()
	}
	nb := d.Uvarint()
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		return 0, 0, fmt.Errorf("header: %w", err)
	}
	if int(id) != part.ID() || int(nBuckets) != part.NBuckets() {
		return 0, 0, fmt.Errorf("written for partition %d of %d buckets, not partition %d of %d",
			id, nBuckets, part.ID(), part.NBuckets())
	}
	for _, t := range tables {
		part.CreateTable(t)
	}
	for i := uint64(0); i < nb; i++ {
		payload, err := readFrame(r, &buf)
		d := NewDecoder(payload)
		data := d.BucketData()
		if err == nil {
			err = d.Done()
		}
		if err != nil {
			return 0, 0, fmt.Errorf("bucket %d/%d: %w", i+1, nb, err)
		}
		if err := part.ApplyBucket(data); err != nil {
			return 0, 0, err
		}
	}
	return int(hseg), seq, nil
}

// pruneSnapshots removes all snapshots older than keep (a segment number).
func pruneSnapshots(dir string, keep int) error {
	snaps, err := listNumbered(dir, "snap-", ".snap")
	if err != nil {
		return err
	}
	for _, n := range snaps {
		if n < keep {
			if err := os.Remove(filepath.Join(dir, snapshotName(n))); err != nil {
				return err
			}
		}
	}
	return syncDir(dir)
}
