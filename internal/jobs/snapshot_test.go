package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSnapshotStreamMatchesMarshal checks that the streamed snapshot file is
// byte for byte json.Marshal of the same snapshot — for a store with no
// jobs (a nil list encodes as null), an empty non-nil list, and records
// whose strings, Spec and Result need HTML escaping — and that it loads
// back to the same snapshot.
func TestSnapshotStreamMatchesMarshal(t *testing.T) {
	escapy := &Record{
		ID:               "j<1>",
		Key:              "ring:<3,1,2>&v=0",
		Kind:             "ksybil",
		Spec:             []byte(`{"graph":"<script>&amp;</script>","k":3}`),
		Priority:         -2,
		Seq:              7,
		Attempt:          2,
		State:            StateFailed,
		Error:            "bad <input> &   \"quoted\"",
		Result:           []byte("\x00\xff<>&"),
		NextIndex:        2,
		Points:           []Point{{W1: "1/2", U: "<3>"}, {W1: "3&4", U: " "}},
		CreatedUnixNano:  1,
		StartedUnixNano:  2,
		FinishedUnixNano: 3,
		CancelRequested:  true,
	}
	plain := &Record{ID: "j2", Key: "k", Kind: "sweep", Seq: 9, Attempt: 1, State: StateQueued}
	for _, snap := range []*snapshot{
		{Version: snapshotVersion, Seq: 0},
		{Version: snapshotVersion, Seq: 3, Jobs: []*Record{}},
		{Version: snapshotVersion, Seq: 9, Jobs: []*Record{escapy, plain}},
	} {
		dir := t.TempDir()
		if err := writeSnapshot(dir, snap); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("streamed snapshot differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
		back, err := loadSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Jobs) == 0 {
			continue // null and [] both load as an empty list
		}
		if !reflect.DeepEqual(back, snap) {
			t.Fatalf("snapshot did not round-trip:\n got %+v\nwant %+v", back, snap)
		}
	}
}
