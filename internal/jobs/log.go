package jobs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Log is a crash-safe write-ahead log of JSON entries of type E: the job
// store's jobs.wal and the cluster router's leases.wal. The file is a
// sequence of self-delimiting frames:
//
//	[4-byte little-endian payload length][4-byte CRC-32C of payload][payload]
//
// Replay stops at the first frame that is short, oversized, or fails its
// checksum — a torn tail from a crash mid-write is discarded, never
// misparsed. Everything before the tear was either fsync'd or is an
// un-synced entry whose loss its owner tolerates.
//
// The owner compacts the log by publishing a snapshot of its state
// (PublishSnapshot) and then calling Truncate. A crash between the two
// leaves the new snapshot beside the old log, so the owner's replay must
// converge when it re-applies entries the snapshot already holds. A Log is
// not safe for concurrent use: its owner serializes calls under its lock.
type Log[E any] struct {
	name                        string
	f                           *os.File
	size                        int64
	appends, syncs, compactions int64
}

// CompactBytes is the log size past which the lease table, and by default
// the job store, compact.
const CompactBytes = 4 << 20

// maxFrame bounds one frame so a corrupt length field cannot demand an
// outsized allocation. A frame holds one job record, one checkpoint delta
// or one lease entry; all are far smaller.
const maxFrame = 16 << 20

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// OpenLog opens the log dir/name, creating both when missing, and passes
// every intact entry to apply in order. A torn tail is truncated away and
// reported. A frame that passes its checksum but does not parse is not a
// torn write — it is a logic error or deliberate corruption, and silently
// dropping the rest of the log would hide it — so it fails the open, as
// does an error from apply.
func OpenLog[E any](dir, name string, apply func(*E) error) (*Log[E], bool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("jobs: create data dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("jobs: open %s: %w", name, err)
	}
	l := &Log[E]{name: name, f: f}
	torn, err := l.replay(apply)
	if err != nil {
		f.Close()
		return nil, false, err
	}
	return l, torn, nil
}

// replay applies the valid prefix of the file, truncates whatever follows
// it, and leaves the file positioned at the prefix's end.
func (l *Log[E]) replay(apply func(*E) error) (torn bool, err error) {
	var header [8]byte
	for {
		_, err := io.ReadFull(l.f, header[:])
		if err == io.EOF {
			break // a clean end
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		var payload []byte
		if err == nil && n <= maxFrame {
			payload = make([]byte, n)
			_, err = io.ReadFull(l.f, payload)
		}
		// A partial header or payload, an oversized length or a bad
		// checksum is a torn tail.
		if err != nil || n > maxFrame || crc32.Checksum(payload, frameCRC) != binary.LittleEndian.Uint32(header[4:8]) {
			torn = true
			break
		}
		var e E
		if err := json.Unmarshal(payload, &e); err != nil {
			return false, fmt.Errorf("jobs: %s entry at offset %d: %w", l.name, l.size, err)
		}
		if err := apply(&e); err != nil {
			return false, err
		}
		l.size += int64(8 + n)
	}
	if torn {
		if err := l.f.Truncate(l.size); err != nil {
			return false, fmt.Errorf("jobs: truncate torn %s tail: %w", l.name, err)
		}
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return false, fmt.Errorf("jobs: seek %s: %w", l.name, err)
	}
	return torn, nil
}

// Append logs e as one frame and fsyncs the file when sync is set; any
// later sync makes earlier un-synced frames durable too, since fsync covers
// the whole file. The frame goes out in one write, so a killed process
// never leaves a half-written header with a valid-looking payload behind
// it.
func (l *Log[E]) Append(e *E, sync bool) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("jobs: encode %s entry: %w", l.name, err)
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("jobs: %s entry of %d bytes exceeds frame limit %d", l.name, len(payload), maxFrame)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, frameCRC))
	copy(frame[8:], payload)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("jobs: append %s: %w", l.name, err)
	}
	l.size += int64(len(frame))
	l.appends++
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("jobs: sync %s: %w", l.name, err)
		}
		l.syncs++
	}
	return nil
}

// Truncate empties the log. Call it only after PublishSnapshot has made
// the state of every appended entry durable.
func (l *Log[E]) Truncate() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("jobs: truncate %s after compaction: %w", l.name, err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("jobs: rewind %s after compaction: %w", l.name, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("jobs: sync truncated %s: %w", l.name, err)
	}
	l.size = 0
	l.compactions++
	return nil
}

// Size returns the log's length in bytes.
func (l *Log[E]) Size() int64 { return l.size }

// Counts returns the frames appended, the appends fsync'd and the
// truncations after a snapshot since open.
func (l *Log[E]) Counts() (appends, syncs, compactions int64) {
	return l.appends, l.syncs, l.compactions
}

// Close syncs and closes the file. The log is unusable afterwards.
func (l *Log[E]) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("jobs: sync %s on close: %w", l.name, err)
	}
	return l.f.Close()
}

// PublishSnapshot atomically replaces dir/name with what write produces —
// tmp file, fsync, rename, directory fsync — so a crash leaves either the
// old snapshot or the new one, never a torn file.
func PublishSnapshot(dir, name string, write func(io.Writer) error) (err error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: create snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("jobs: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jobs: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("jobs: publish snapshot: %w", err)
	}
	// Make the rename durable. Some platforms refuse to fsync a directory;
	// that only weakens the rename's durability, not correctness.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadSnapshot decodes the JSON snapshot dir/name into v and reports
// whether it exists: a missing snapshot is an empty state, not an error.
func ReadSnapshot(dir, name string, v any) (bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("jobs: read snapshot %s: %w", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("jobs: parse snapshot %s: %w", name, err)
	}
	return true, nil
}
