package durability

// LogPayloads returns every intact record payload in dir's log segments,
// keyed by LSN, for tests outside the package that compare logs byte for
// byte. The codec is canonical (FuzzRecordRoundTrip), so re-encoding a
// decoded record gives back the bytes it was read from.
func LogPayloads(dir string) (map[uint64][]byte, error) {
	out := make(map[uint64][]byte)
	err := replaySegments(dir, 0, func(rec *Record) error {
		out[rec.LSN] = AppendRecord(nil, rec)
		return nil
	})
	return out, err
}
