package cert_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/sybil"
)

// TestRegenerateFuzzCorpus rebuilds the seeded FuzzCertRoundTrip corpus
// from solver-built certificates when REGEN_CORPUS=1; otherwise it verifies
// that every committed seed still decodes and checks, so corpus rot shows
// up in plain `go test` rather than only under the fuzzer.
func TestRegenerateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCertRoundTrip")
	regen := os.Getenv("REGEN_CORPUS") == "1"
	ctx := context.Background()

	var seeds [][]byte
	addJSON := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	// Solver-built certificates across the three schemas, including a
	// zero-weight cluster and the near-tight two-heavy-vertices shape.
	for _, ws := range [][]int64{{1, 1, 1}, {3, 1, 2, 1, 5}, {1, 100, 1, 1, 100, 1}, {0, 0, 0}} {
		g := ringOf(ws)
		in, err := core.NewInstanceCtx(ctx, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: 8})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := build.Ratio(ctx, in, opt)
		if err != nil {
			t.Fatal(err)
		}
		addJSON(rc)
		addJSON(&rc.Ring)
		res, err := sybil.RingSweepCtx(ctx, in.G, in.V, sybil.SweepOptions{Grid: 4})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := build.Sweep(ctx, in, res, 4)
		if err != nil {
			t.Fatal(err)
		}
		addJSON(sc)
	}

	if regen {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			// The corpus stores []byte arguments as quoted Go strings.
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d corpus seeds to %s", len(seeds), dir)
		return
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seeded corpus missing (run with REGEN_CORPUS=1): %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("seeded corpus directory is empty")
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: each committed seed contains a decodable, checkable
		// certificate (format: "go test fuzz v1\n[]byte("...")\n").
		var payload string
		if _, err := fmt.Sscanf(string(b), "go test fuzz v1\n[]byte(%q)", &payload); err != nil {
			t.Fatalf("%s: unexpected corpus format: %v", e.Name(), err)
		}
		var probe struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal([]byte(payload), &probe); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		var c cert.Checkable
		switch probe.Schema {
		case cert.SchemaDecomposition:
			c = new(cert.DecompositionCert)
		case cert.SchemaRatio:
			c = new(cert.RatioCert)
		case cert.SchemaSweep:
			c = new(cert.SweepCert)
		default:
			t.Fatalf("%s: unknown schema %q", e.Name(), probe.Schema)
		}
		if err := json.Unmarshal([]byte(payload), c); err != nil {
			t.Fatalf("%s: decode: %v", e.Name(), err)
		}
		if err := cert.Check(c); err != nil {
			t.Fatalf("%s: seed no longer checks: %v", e.Name(), err)
		}
	}
}
