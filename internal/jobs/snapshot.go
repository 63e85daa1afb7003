package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// snapshotVersion tags the snapshot layout so a future change rejects old
// files loudly instead of misreading them.
const snapshotVersion = 1

// snapshot is the compacted store state: every live record (points
// included) plus the submission-sequence high-water mark. It is written
// atomically — tmp file, fsync, rename, directory fsync — so a crash
// during compaction leaves either the old snapshot or the new one, never a
// torn file.
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
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return &snapshot{Version: snapshotVersion}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: read snapshot: %w", err)
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("jobs: parse snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("jobs: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	return &s, nil
}

// writeSnapshot atomically replaces dir's snapshot with s.
func writeSnapshot(dir string, s *snapshot) error {
	tmp := filepath.Join(dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: create snapshot: %w", err)
	}
	if err := encodeSnapshot(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("jobs: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: publish snapshot: %w", err)
	}
	return syncDir(dir)
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

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Some platforms refuse to fsync directories; that only weakens
// durability of the rename, not correctness, so such errors are ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
