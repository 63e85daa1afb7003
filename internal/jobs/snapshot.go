package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// snapshotVersion tags the snapshot layout so a future change rejects old
// files loudly instead of misreading them.
const snapshotVersion = 1

// snapshot is the compacted store state: every live record (points
// included) plus the submission-sequence high-water mark, published
// atomically (PublishSnapshot) before the WAL is truncated.
type snapshot struct {
	Version int       `json:"version"`
	Seq     uint64    `json:"seq"`
	Jobs    []*Record `json:"jobs"`
}

const (
	snapshotName = "snapshot.json"
	walName      = "jobs.wal"
)

// loadSnapshot reads dir's snapshot, if any. A missing file is an empty
// store, not an error.
func loadSnapshot(dir string) (*snapshot, error) {
	var s snapshot
	found, err := ReadSnapshot(dir, snapshotName, &s)
	if err != nil {
		return nil, err
	}
	if !found {
		s.Version = snapshotVersion
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("jobs: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	return &s, nil
}

// writeSnapshot atomically replaces dir's snapshot with s.
func writeSnapshot(dir string, s *snapshot) error {
	return PublishSnapshot(dir, snapshotName, func(w io.Writer) error { return encodeSnapshot(w, s) })
}

// encodeSnapshot writes exactly the bytes of json.Marshal(s), one record at
// a time through a buffered writer, so no buffer ever holds the whole store.
// The writer keeps its first write error and Flush returns it, so the
// writes before Flush go unchecked.
func encodeSnapshot(w io.Writer, s *snapshot) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"version":%d,"seq":%d,"jobs":`, s.Version, s.Seq)
	if s.Jobs == nil {
		bw.WriteString("null")
	} else {
		bw.WriteByte('[')
		for i, rec := range s.Jobs {
			if i > 0 {
				bw.WriteByte(',')
			}
			data, err := json.Marshal(rec)
			if err != nil {
				return fmt.Errorf("jobs: encode snapshot: %w", err)
			}
			bw.Write(data)
		}
		bw.WriteByte(']')
	}
	bw.WriteByte('}')
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("jobs: write snapshot: %w", err)
	}
	return nil
}
