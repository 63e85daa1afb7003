// Command certenum runs the exhaustive small-n certificate enumeration:
// every canonical ring over the integer weight lattice is solved, certified
// and re-verified by the solver-free checker (internal/cert), and the run
// fails loudly — nonzero exit — if any instance fails certification or any
// certified ratio exceeds the paper's bound 2.
//
// Usage:
//
//	certenum [-min-n 3] [-max-n 6] [-levels 3] [-grid 8] [-eps 1/2]
//	         [-workers N] [-frontier FILE] [-timeout 25s]
//
// The summary is printed as JSON on stdout. With -frontier, the near-tight
// instances (ratio ≥ 2 − eps) are archived to FILE as JSON, ready to feed
// fuzz corpora or regression suites. ci.sh runs this as its enumeration
// smoke with a hard timeout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"os"
	"time"

	"repro/internal/cert/enum"
	"repro/internal/numeric"
	"repro/internal/par"
	"repro/internal/scan"
)

func main() {
	minN := flag.Int("min-n", 3, "smallest ring size")
	maxN := flag.Int("max-n", 6, "largest ring size (≤ 10)")
	levels := flag.Int("levels", 3, "integer weight levels 1..L (≤ 6)")
	grid := flag.Int("grid", 8, "split-optimizer grid per instance")
	epsStr := flag.String("eps", "1/2", "frontier threshold: archive ratio ≥ 2−eps")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	frontier := flag.String("frontier", "", "write frontier instances to this JSON file")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = none)")
	flag.Parse()

	eps, ok := new(big.Rat).SetString(*epsStr)
	if !ok || eps.Sign() <= 0 {
		fail("bad -eps %q", *epsStr)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	sum, err := certifyAll(ctx, enum.Options{
		MinN: *minN, MaxN: *maxN, Levels: *levels, Grid: *grid, Eps: numeric.FromBig(eps),
	}, *workers)
	if err != nil {
		fail("enumeration: %v", err)
	}

	out := struct {
		*enum.Summary
		Elapsed string `json:"elapsed"`
	}{sum, time.Since(start).Round(time.Millisecond).String()}
	encodeTo(os.Stdout, out)

	if *frontier != "" {
		f, err := os.Create(*frontier)
		if err != nil {
			fail("frontier archive: %v", err)
		}
		encodeTo(f, sum.Frontier)
		if err := f.Close(); err != nil {
			fail("frontier archive: %v", err)
		}
	}

	if n := len(sum.Failures); n > 0 {
		fail("%d of %d instances failed certification (first: %s: %s)",
			n, sum.Instances, sum.Failures[0].Key, sum.Failures[0].Err)
	}
	maxR, ok := new(big.Rat).SetString(sum.MaxRatio)
	if !ok {
		fail("unparsable max ratio %q", sum.MaxRatio)
	}
	if numeric.Two.Less(numeric.FromBig(maxR)) {
		fail("max certified ratio %s at %s exceeds the Theorem 8 bound 2", sum.MaxRatio, sum.MaxKey)
	}
}

func encodeTo(f *os.File, v any) {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail("encode: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "certenum: "+format+"\n", args...)
	os.Exit(1)
}

// certifyAll certifies the whole enumeration in parallel on workers
// goroutines (0 = GOMAXPROCS) and summarizes it; a run cut short by the
// timeout is an error, not a partial summary.
func certifyAll(ctx context.Context, o enum.Options, workers int) (*enum.Summary, error) {
	sc, err := enum.NewScan(o)
	if err != nil {
		return nil, err
	}
	r, err := scan.Run(ctx, sc, scan.Options[enum.Outcome]{Workers: par.Workers(workers)})
	if err != nil {
		return nil, err
	}
	if r.Partial {
		return nil, ctx.Err()
	}
	return enum.Summarize(r.Points, o.Resolved().Eps)
}
