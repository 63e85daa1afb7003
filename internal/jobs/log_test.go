package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestStoreLegacyFixture opens a store directory written by the job store
// before it ran on Log (testdata/legacy_store: a snapshot, then a WAL tail
// holding checkpoints, a finished job, a restarted attempt and a new
// submission). It must recover the records that code recovered
// (want.json), log the same two follow-up mutations as the frames that
// code wrote for them (tail.wal), and compact to the snapshot it wrote
// (compacted.json), byte for byte.
func TestStoreLegacyFixture(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapshotName, walName} {
		data, err := os.ReadFile(filepath.Join("testdata/legacy_store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := openStore(t, dir, StoreConfig{})
	recs, _ := st.List(ListOptions{Limit: 1000})
	got, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	assertFixture(t, "want.json", append(got, '\n'))

	walPath := filepath.Join(dir, walName)
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id := IDForKey("ksybil:ring:3,1,2,1,5|v=0|k=3|grid=12")
	if err := st.AppendPoints(ctx, id, 3, []Point{{W1: "3/4", U: "5/2"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Update(ctx, id, func(r *Record) error {
		r.State = StateRunning
		r.StartedUnixNano = 1700000000000000003
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	assertFixture(t, "tail.wal", wal[before.Size():])

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	assertFixture(t, "compacted.json", snap)
}

func assertFixture(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata/legacy_store", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the fixture the earlier code wrote:\n got %q\nwant %q", name, got, want)
	}
}
