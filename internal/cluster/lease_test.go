package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
)

func pts(vals ...string) []server.WireSweepPoint {
	out := make([]server.WireSweepPoint, 0, len(vals)/2)
	for i := 0; i+1 < len(vals); i += 2 {
		out = append(out, server.WireSweepPoint{W1: vals[i], U: vals[i+1]})
	}
	return out
}

// TestLeaseLogReplay: grants, renewals, and retirements reduce to the same
// live table after a close/reopen cycle — the invariant a router restart
// depends on.
func TestLeaseLogReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := json.RawMessage(`{"graph":{"ring":["1","2"]},"grid":8}`)
	if err := l.grant(ctx, &Lease{JobID: "keep", Node: "http://a", Kind: "sweep", Key: "k1", Expiry: 10, Body: body}); err != nil {
		t.Fatal(err)
	}
	if err := l.grant(ctx, &Lease{JobID: "drop", Node: "http://b", Kind: "sweep", Key: "k2", Expiry: 10, Body: body}); err != nil {
		t.Fatal(err)
	}
	exp := time.Unix(0, 999)
	if err := l.renew(ctx, "keep", exp, 0, pts("0", "1", "1/2", "3/2"), 2); err != nil {
		t.Fatal(err)
	}
	// A second renewal splices at its start offset instead of appending
	// blindly, so a re-observed prefix never duplicates points.
	if err := l.renew(ctx, "keep", exp, 2, pts("1", "2"), 3); err != nil {
		t.Fatal(err)
	}
	if err := l.retire(ctx, "drop"); err != nil {
		t.Fatal(err)
	}
	if err := l.renew(ctx, "ghost", exp, 0, nil, 0); err == nil {
		t.Fatal("renewing an unknown lease must fail")
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	l2, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	all := l2.all()
	if len(all) != 1 {
		t.Fatalf("replayed table has %d leases, want 1: %+v", len(all), all)
	}
	ls, ok := l2.get("keep")
	if !ok {
		t.Fatal("lease 'keep' lost across replay")
	}
	if ls.Node != "http://a" || ls.Expiry != exp.UnixNano() || ls.NextIndex != 3 {
		t.Fatalf("replayed lease wrong: %+v", ls)
	}
	if len(ls.Points) != 3 || ls.Points[2].W1 != "1" || ls.Points[2].U != "2" {
		t.Fatalf("replayed checkpoint wrong: %+v", ls.Points)
	}
	if string(ls.Body) != string(body) {
		t.Fatalf("replayed body wrong: %s", ls.Body)
	}
}

// TestLeaseLogTornTail: a crash mid-append leaves a partial frame; reopening
// truncates it and keeps everything before it.
func TestLeaseLogTornTail(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.grant(ctx, &Lease{JobID: "j1", Node: "http://a", Key: "k", Expiry: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "leases.wal")
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible frame header promising more bytes than follow.
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := openLeaseLog(dir)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if _, ok := l2.get("j1"); !ok {
		t.Fatal("intact lease lost to torn-tail truncation")
	}
	// The log must be appendable again after truncation.
	if err := l2.grant(ctx, &Lease{JobID: "j2", Node: "http://b", Key: "k", Expiry: 6}); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	if err := l2.close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() <= intact.Size() {
		t.Fatalf("log did not grow past the truncated tail: %d -> %d", intact.Size(), after.Size())
	}

	l3, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.close()
	if len(l3.all()) != 2 {
		t.Fatalf("final table has %d leases, want 2", len(l3.all()))
	}
}

// TestLeaseLogMemoryOnly: with no data dir the table behaves identically
// minus durability — and never touches the filesystem.
func TestLeaseLogMemoryOnly(t *testing.T) {
	ctx := context.Background()
	l, err := openLeaseLog("")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.grant(ctx, &Lease{JobID: "j", Node: "http://a", Key: "k", Expiry: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.renew(ctx, "j", time.Unix(0, 2), 0, pts("0", "1"), 1); err != nil {
		t.Fatal(err)
	}
	ls, ok := l.get("j")
	if !ok || ls.Expiry != 2 || len(ls.Points) != 1 {
		t.Fatalf("memory-only lease wrong: %+v (ok=%v)", ls, ok)
	}
	if _, appends, syncs := l.stats(); appends != 0 || syncs != 0 {
		t.Fatalf("memory-only mode counted file appends: %d/%d", appends, syncs)
	}
	if err := l.retire(ctx, "j"); err != nil {
		t.Fatal(err)
	}
	if len(l.all()) != 0 {
		t.Fatal("retired lease still live")
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseLogLegacyFixture replays a leases.wal written by the lease log
// before it ran on jobs.Log (testdata/legacy_leases: two grants, two
// renewals with points, a done and a torn tail). It must truncate the tail,
// rebuild the table that code rebuilt (want.json), and log the same two
// follow-up entries as the frames that code wrote for them (tail.wal).
func TestLeaseLogLegacyFixture(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "leases.wal")
	fixture, err := os.ReadFile("testdata/legacy_leases/leases.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	assertLeaseFixture(t, "want.json", append(sortedLeaseJSON(t, l), '\n'))
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if intact.Size() >= int64(len(fixture)) {
		t.Fatalf("torn tail not truncated: %d of %d bytes left", intact.Size(), len(fixture))
	}

	if err := l.renew(ctx, "j0123456789abcdef", time.Unix(0, 1700000015000000000), 3, pts("3/4", "5/2"), 4); err != nil {
		t.Fatal(err)
	}
	if err := l.grant(ctx, &Lease{JobID: "j1111222233334444", Node: "http://10.0.0.3:8080", Kind: "topology",
		Key: "/v1/jobs", Expiry: 1700000020000000000, Body: json.RawMessage(`{"kind":"topology"}`)}); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertLeaseFixture(t, "tail.wal", wal[intact.Size():])
}

// TestLeaseLogCompaction: renewals whose checkpoint deltas carry the log
// past jobs.CompactBytes compact it — the WAL ends below the threshold, the
// snapshot holds exactly the live leases — and a reopen restores the
// identical table, points included.
func TestLeaseLogCompaction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := json.RawMessage(`{"graph":{"ring":["1","2"]},"grid":8}`)
	for _, id := range []string{"gone", "live", "idle"} {
		if err := l.grant(ctx, &Lease{JobID: id, Node: "http://a", Kind: "sweep", Key: id, Expiry: 1, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.retire(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	// Every point encodes to at least 29 bytes, so 320 renewals of 512
	// points log more than 4.7 MB, past the 4 MiB threshold.
	const renewals, perRenew = 320, 512
	for k := 0; k < renewals; k++ {
		next := k * perRenew
		delta := make([]server.WireSweepPoint, perRenew)
		for i := range delta {
			delta[i] = server.WireSweepPoint{W1: fmt.Sprintf("%d/1048576", next+i), U: fmt.Sprintf("%d/3", 2*(next+i)+1)}
		}
		if err := l.renew(ctx, "live", time.Unix(0, int64(next)), next, delta, next+perRenew); err != nil {
			t.Fatal(err)
		}
	}

	wal, err := os.Stat(filepath.Join(dir, leaseWALName))
	if err != nil {
		t.Fatal(err)
	}
	if wal.Size() >= jobs.CompactBytes {
		t.Fatalf("lease WAL holds %d bytes after %d renewals: not compacted below %d", wal.Size(), renewals, jobs.CompactBytes)
	}
	data, err := os.ReadFile(filepath.Join(dir, leaseSnapshotName))
	if err != nil {
		t.Fatalf("no lease snapshot: %v", err)
	}
	var snap map[string]struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 || snap["idle"].JobID != "idle" || snap["live"].JobID != "live" {
		t.Fatalf("snapshot holds %+v, want the live leases idle and live", snap)
	}

	before := sortedLeases(l)
	if ls, _ := l.get("live"); len(ls.Points) != renewals*perRenew || ls.NextIndex != renewals*perRenew {
		t.Fatalf("live lease has %d points, next index %d", len(ls.Points), ls.NextIndex)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	l2, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	if after := sortedLeases(l2); !reflect.DeepEqual(after, before) {
		t.Fatal("reopened lease table differs from the one closed")
	}
}

// sortedLeases returns the live table, sorted by job ID.
func sortedLeases(l *leaseLog) []Lease {
	all := l.all()
	sort.Slice(all, func(i, j int) bool { return all[i].JobID < all[j].JobID })
	return all
}

// sortedLeaseJSON renders the live table, sorted by job ID.
func sortedLeaseJSON(t *testing.T, l *leaseLog) []byte {
	t.Helper()
	data, err := json.MarshalIndent(sortedLeases(l), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func assertLeaseFixture(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata/legacy_leases", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the fixture the earlier code wrote:\n got %q\nwant %q", name, got, want)
	}
}
