package jobs

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/fault"
)

func openStore(t *testing.T, dir string, cfg StoreConfig) *Store {
	t.Helper()
	st, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func submitN(t *testing.T, st *Store, n int) []*Record {
	t.Helper()
	out := make([]*Record, n)
	for i := range out {
		rec, created, err := st.Submit(context.Background(), Submission{
			Key:  fmt.Sprintf("key-%d", i),
			Kind: "sweep",
			Spec: []byte(fmt.Sprintf(`{"i":%d}`, i)),
		})
		if err != nil || !created {
			t.Fatalf("Submit %d: created=%v err=%v", i, created, err)
		}
		out[i] = rec
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openStore(t, dir, StoreConfig{})
	recs := submitN(t, st, 3)

	// Drive job 0 through a full lifecycle with checkpoints.
	if _, err := st.Update(ctx, recs[0].ID, func(r *Record) error {
		r.State = StateRunning
		r.StartedUnixNano = 42
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPoints(ctx, recs[0].ID, 0, []Point{{W1: "0", U: "1"}, {W1: "1/2", U: "3/2"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPoints(ctx, recs[0].ID, 2, []Point{{W1: "1", U: "2"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Update(ctx, recs[0].ID, func(r *Record) error {
		r.State = StateDone
		r.Result = []byte(`{"ok":true}`)
		r.FinishedUnixNano = 43
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, StoreConfig{})
	got, ok := re.Get(recs[0].ID)
	if !ok {
		t.Fatal("job 0 lost across reopen")
	}
	if got.State != StateDone || string(got.Result) != `{"ok":true}` {
		t.Fatalf("job 0 state %q result %q", got.State, got.Result)
	}
	if got.NextIndex != 3 || len(got.Points) != 3 || got.Points[1] != (Point{W1: "1/2", U: "3/2"}) {
		t.Fatalf("job 0 checkpoint: next=%d points=%v", got.NextIndex, got.Points)
	}
	if got.StartedUnixNano != 42 || got.FinishedUnixNano != 43 {
		t.Fatalf("timestamps lost: %+v", got)
	}
	for _, want := range recs[1:] {
		r, ok := re.Get(want.ID)
		if !ok || r.State != StateQueued || string(r.Spec) != string(want.Spec) {
			t.Fatalf("job %s not recovered as queued: %+v", want.ID, r)
		}
	}
	if s := re.Stats(); s.Recovered != 3 || s.Resumable != 2 {
		t.Fatalf("stats after reopen: %+v", s)
	}
}

func TestStoreDedupe(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir(), StoreConfig{})
	sub := Submission{Key: "same", Kind: "sweep", Spec: []byte(`{}`)}
	a, created, err := st.Submit(ctx, sub)
	if err != nil || !created {
		t.Fatalf("first submit: %v %v", created, err)
	}
	b, created, err := st.Submit(ctx, sub)
	if err != nil || created {
		t.Fatalf("duplicate submit created a job: %v", err)
	}
	if a.ID != b.ID || b.Attempt != 1 {
		t.Fatalf("dedupe mismatch: %s vs %s (attempt %d)", a.ID, b.ID, b.Attempt)
	}
	if a.ID != IDForKey("same") {
		t.Fatalf("ID %s not content-addressed", a.ID)
	}

	// A done job still dedupes; a failed one restarts as a new attempt.
	if _, err := st.Update(ctx, a.ID, func(r *Record) error {
		r.State = StateFailed
		r.Error = "boom"
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c, created, err := st.Submit(ctx, sub)
	if err != nil || !created {
		t.Fatalf("resubmit after failure: created=%v err=%v", created, err)
	}
	if c.ID != a.ID || c.Attempt != 2 || c.State != StateQueued || c.Error != "" || c.NextIndex != 0 {
		t.Fatalf("restart record: %+v", c)
	}
}

func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openStore(t, dir, StoreConfig{})
	recs := submitN(t, st, 2)
	if err := st.AppendPoints(ctx, recs[0].ID, 0, []Point{{W1: "0", U: "0"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: append half a frame of garbage.
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(walPath)

	re := openStore(t, dir, StoreConfig{})
	if s := re.Stats(); !s.TornTail || s.Recovered != 2 {
		t.Fatalf("stats: %+v, want torn tail with 2 recovered", s)
	}
	got, _ := re.Get(recs[0].ID)
	if got.NextIndex != 1 || len(got.Points) != 1 {
		t.Fatalf("checkpoint lost with the torn tail: %+v", got)
	}
	after, _ := os.Stat(walPath)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
}

func TestStoreCorruptFrameDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openStore(t, dir, StoreConfig{})
	rec := submitN(t, st, 1)[0]
	if err := st.AppendPoints(ctx, rec.ID, 0, []Point{{W1: "0", U: "0"}}); err != nil {
		t.Fatal(err)
	}
	mark, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPoints(ctx, rec.ID, 1, []Point{{W1: "1/2", U: "1"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of the last frame: its CRC must reject it, and
	// replay must stop there rather than trust the rest of the file.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[mark.Size()+9] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, StoreConfig{})
	got, _ := re.Get(rec.ID)
	if got.NextIndex != 1 || len(got.Points) != 1 {
		t.Fatalf("want resume at 1 after corrupt second checkpoint, got %+v", got)
	}
	if s := re.Stats(); !s.TornTail {
		t.Fatalf("corruption not reported as torn tail: %+v", s)
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// Tiny threshold: every append triggers compaction.
	st := openStore(t, dir, StoreConfig{CompactBytes: 1})
	rec := submitN(t, st, 1)[0]
	for i := 0; i < 5; i++ {
		if err := st.AppendPoints(ctx, rec.ID, i, []Point{{W1: fmt.Sprintf("%d", i), U: "1"}}); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.Compactions == 0 {
		t.Fatalf("no compaction at CompactBytes=1: %+v", s)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir, StoreConfig{})
	got, _ := re.Get(rec.ID)
	if got.NextIndex != 5 || len(got.Points) != 5 {
		t.Fatalf("state lost across compaction: %+v", got)
	}
}

// TestStoreStaleWALReplay covers the crash window between snapshot publish
// and WAL truncation: replaying the full stale log over the new snapshot
// must converge to the same state, not corrupt it.
func TestStoreStaleWALReplay(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openStore(t, dir, StoreConfig{CompactBytes: -1})
	rec := submitN(t, st, 1)[0]
	for i := 0; i < 4; i++ {
		if err := st.AppendPoints(ctx, rec.ID, i, []Point{{W1: fmt.Sprintf("%d/4", i), U: "1"}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Update(ctx, rec.ID, func(r *Record) error {
		r.State = StateRunning
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot by hand but "crash" before truncating the WAL.
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, StoreConfig{})
	got, _ := re.Get(rec.ID)
	if got.State != StateRunning || got.NextIndex != 4 || len(got.Points) != 4 {
		t.Fatalf("stale-WAL replay diverged: %+v", got)
	}
	if got.Points[3] != (Point{W1: "3/4", U: "1"}) {
		t.Fatalf("points corrupted: %v", got.Points)
	}
}

func TestStoreList(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	recs := submitN(t, st, 5)
	if _, err := st.Update(context.Background(), recs[2].ID, func(r *Record) error {
		r.State = StateDone
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	page1, next := st.List(ListOptions{Limit: 2})
	if len(page1) != 2 || next == 0 {
		t.Fatalf("page1: %d items, cursor %d", len(page1), next)
	}
	page2, next := st.List(ListOptions{Limit: 2, AfterSeq: next})
	if len(page2) != 2 || next == 0 {
		t.Fatalf("page2: %d items, cursor %d", len(page2), next)
	}
	page3, next := st.List(ListOptions{Limit: 2, AfterSeq: next})
	if len(page3) != 1 || next != 0 {
		t.Fatalf("page3: %d items, cursor %d", len(page3), next)
	}
	var ids []string
	for _, r := range append(append(page1, page2...), page3...) {
		ids = append(ids, r.ID)
	}
	want := []string{recs[0].ID, recs[1].ID, recs[2].ID, recs[3].ID, recs[4].ID}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("pagination order %v, want %v", ids, want)
	}

	done, _ := st.List(ListOptions{State: StateDone})
	if len(done) != 1 || done[0].ID != recs[2].ID {
		t.Fatalf("state filter: %+v", done)
	}
}

func TestStoreWALFaultInjection(t *testing.T) {
	st := openStore(t, t.TempDir(), StoreConfig{})
	inj, err := fault.New(1, fault.Rule{Site: fault.SiteJobsWAL, Kind: fault.KindError, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := fault.ContextWith(context.Background(), inj)
	if _, _, err := st.Submit(ctx, Submission{Key: "k", Kind: "sweep"}); err == nil {
		t.Fatal("injected WAL fault did not fail the submit")
	}
	// The failed submit must leave no trace: a clean retry succeeds.
	rec, created, err := st.Submit(context.Background(), Submission{Key: "k", Kind: "sweep"})
	if err != nil || !created {
		t.Fatalf("clean submit after injected failure: created=%v err=%v", created, err)
	}
	if _, ok := st.Get(rec.ID); !ok {
		t.Fatal("record missing after clean submit")
	}
}

func TestStoreCheckpointValidation(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir(), StoreConfig{})
	rec := submitN(t, st, 1)[0]
	if err := st.AppendPoints(ctx, rec.ID, 3, []Point{{W1: "1", U: "1"}}); err == nil {
		t.Fatal("gap checkpoint accepted")
	}
	if err := st.AppendPoints(ctx, "no-such-job", 0, []Point{{W1: "1", U: "1"}}); err == nil {
		t.Fatal("checkpoint for unknown job accepted")
	}
	if _, err := st.Update(ctx, rec.ID, func(r *Record) error {
		r.State = "exploded"
		return nil
	}); err == nil {
		t.Fatal("unknown state accepted")
	}
}

// TestStoreReplaceKeepsOrder drives many jobs through state transitions in
// a shuffled order — Update and the restart of a failed job both replace a
// record in the Seq-sorted index — and checks that List still returns every
// job once, in submission order, agreeing with Get, before and after a
// reopen.
func TestStoreReplaceKeepsOrder(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openStore(t, dir, StoreConfig{CompactBytes: -1})
	recs := submitN(t, st, 200)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		for _, i := range rng.Perm(len(recs)) {
			if _, err := st.Update(ctx, recs[i].ID, func(r *Record) error {
				r.Priority = round*1000 + i
				if i%5 == 0 {
					r.State = StateFailed
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				// Restart the failed job: a fresh attempt, same ID and Seq.
				if _, created, err := st.Submit(ctx, Submission{Key: fmt.Sprintf("key-%d", i), Priority: round*1000 + i}); err != nil || !created {
					t.Fatalf("restart %d: created=%v err=%v", i, created, err)
				}
			}
		}
	}
	check := func(st *Store) {
		t.Helper()
		var all []*Record
		for cursor := uint64(0); ; {
			page, next := st.List(ListOptions{AfterSeq: cursor, Limit: 7})
			all = append(all, page...)
			if next == 0 {
				break
			}
			cursor = next
		}
		if len(all) != len(recs) {
			t.Fatalf("List returned %d records, want %d", len(all), len(recs))
		}
		for i, r := range all {
			if r.ID != recs[i].ID || r.Seq != recs[i].Seq {
				t.Fatalf("List[%d] = %s (seq %d), want %s (seq %d)", i, r.ID, r.Seq, recs[i].ID, recs[i].Seq)
			}
			got, ok := st.Get(r.ID)
			if !ok || !reflect.DeepEqual(got, r) {
				t.Fatalf("job %d: Get %+v disagrees with List %+v", i, got, r)
			}
			if want := 2000 + i; r.Priority != want {
				t.Fatalf("job %d: priority %d, want %d", i, r.Priority, want)
			}
			want := 1
			if i%5 == 0 {
				want = 4 // restarted once per round
			}
			if r.Attempt != want {
				t.Fatalf("job %d: attempt %d, want %d", i, r.Attempt, want)
			}
		}
	}
	check(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	check(openStore(t, dir, StoreConfig{}))
}

// TestStoreCloneIsolation checks the store's memory contract: checkpoints
// append to the canonical record in place, and every record handed out
// earlier — by Get, List or Pending, and the running job's own prefix —
// keeps exactly the points it had. Readers take records from several
// goroutines while the scheduler's worker appends and Compact runs.
func TestStoreCloneIsolation(t *testing.T) {
	const seeded, appended = 3, 300
	pointAt := func(i int) Point { return Point{W1: strconv.Itoa(i), U: fmt.Sprintf("%d/3", i)} }
	dir := t.TempDir()
	st := openStore(t, dir, StoreConfig{CompactBytes: 4 << 10})
	checkPrefix := func(where string, rec *Record) {
		if rec.NextIndex != len(rec.Points) {
			t.Errorf("%s: NextIndex %d with %d points", where, rec.NextIndex, len(rec.Points))
			return
		}
		for k, p := range rec.Points {
			if p != pointAt(k) {
				t.Errorf("%s: point %d = %+v, want %+v", where, k, p, pointAt(k))
				return
			}
		}
	}

	prefixKept := make(chan error, 1)
	run := func(ctx context.Context, rec *Record, ckpt CheckpointFunc) ([]byte, error) {
		prefix := append([]Point(nil), rec.Points...)
		for i := rec.NextIndex; i < seeded+appended; i++ {
			if err := ckpt(i, []Point{pointAt(i)}); err != nil {
				return nil, err
			}
		}
		if !reflect.DeepEqual(rec.Points, prefix) {
			prefixKept <- fmt.Errorf("runner prefix changed under appends: %v, want %v", rec.Points, prefix)
		}
		close(prefixKept)
		return []byte(`{}`), nil
	}
	s := newSched(t, st, 1, run)
	seed := make([]Point, seeded)
	for i := range seed {
		seed[i] = pointAt(i)
	}
	rec, _, err := s.Submit(context.Background(), Submission{Key: "isolation", Kind: "ksybil", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	type held struct {
		rec    *Record
		points []Point
	}
	heldBy := make([][]held, 3)
	for r := range heldBy {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var got []*Record
				switch n % 3 {
				case 0:
					if rec, ok := st.Get(rec.ID); ok {
						got = append(got, rec)
					}
				case 1:
					got, _ = st.List(ListOptions{})
				case 2:
					got = st.Pending()
				}
				for _, g := range got {
					checkPrefix("reader", g)
					if n%16 == r && len(heldBy[r]) < 64 {
						heldBy[r] = append(heldBy[r], held{g, append([]Point(nil), g.Points...)})
					}
				}
				runtime.Gosched()
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	s.Start()
	waitState(t, st, rec.ID, StateDone)
	close(stop)
	wg.Wait()
	if err := <-prefixKept; err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, hs := range heldBy {
		for _, h := range hs {
			total++
			if !reflect.DeepEqual(h.rec.Points, h.points) {
				t.Fatalf("a record read with %d points changed after later appends: now %v", len(h.points), h.rec.Points)
			}
			// An append to a held view must not write into the store.
			_ = append(h.rec.Points, Point{W1: "x", U: "x"})
		}
	}
	if total == 0 {
		t.Fatal("readers held no records; the isolation check is vacuous")
	}
	final, _ := st.Get(rec.ID)
	if len(final.Points) != seeded+appended {
		t.Fatalf("final record has %d points, want %d", len(final.Points), seeded+appended)
	}
	checkPrefix("final", final)
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, _ := openStore(t, dir, StoreConfig{}).Get(rec.ID)
	if !reflect.DeepEqual(re, final) {
		t.Fatalf("reopened record differs:\n got %+v\nwant %+v", re, final)
	}
}
