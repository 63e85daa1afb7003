package jobs

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures checkpoint-delta append throughput: the
// un-synced hot path a running sweep job exercises once per grid point.
func BenchmarkWALAppend(b *testing.B) {
	ctx := context.Background()
	st, err := Open(b.TempDir(), StoreConfig{CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec, _, err := st.Submit(ctx, Submission{Key: "bench", Kind: "sweep"})
	if err != nil {
		b.Fatal(err)
	}
	pts := []Point{{W1: "12345/67890", U: "98765/43210"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AppendPoints(ctx, rec.ID, i, pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendSync measures the fsync'd append path — the cost of one
// durable state transition.
func BenchmarkWALAppendSync(b *testing.B) {
	ctx := context.Background()
	st, err := Open(b.TempDir(), StoreConfig{CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec, _, err := st.Submit(ctx, Submission{Key: "bench", Kind: "sweep"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Update(ctx, rec.ID, func(r *Record) error {
			r.Priority = i
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover10k measures a cold Open over a WAL holding 10k records —
// the startup recovery cost after an unclean shutdown at scale.
func BenchmarkRecover10k(b *testing.B) {
	ctx := context.Background()
	dir := b.TempDir()
	st, err := Open(dir, StoreConfig{CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, _, err := st.Submit(ctx, Submission{
			Key:  fmt.Sprintf("job-%d", i),
			Kind: "sweep",
			Spec: []byte(`{"grid":64}`),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := Open(dir, StoreConfig{CompactBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		if got := re.Stats().Recovered; got != 10_000 {
			b.Fatalf("recovered %d, want 10000", got)
		}
		re.Close()
	}
}

// BenchmarkCheckpointJob measures the checkpoints of one ksybil k=3 grid-32
// job: 561 one-point AppendPoints on one record, as a running scan sends
// them. The job's submission is outside the timer.
func BenchmarkCheckpointJob(b *testing.B) {
	const points = 561
	ctx := context.Background()
	st, err := Open(b.TempDir(), StoreConfig{CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	pts := []Point{{W1: "12,7,13", U: "98765/43210"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rec, _, err := st.Submit(ctx, Submission{Key: fmt.Sprintf("job-%d", i), Kind: "ksybil"})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for k := 0; k < points; k++ {
			if err := st.AppendPoints(ctx, rec.ID, k, pts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
