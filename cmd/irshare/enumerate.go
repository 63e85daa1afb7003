package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"time"

	"repro/internal/cert/enum"
	"repro/internal/numeric"
	"repro/internal/par"
	"repro/internal/scan"
)

// runEnumerate is `irshare enumerate`, the exhaustive small-n certificate
// enumeration: every canonical ring over the integer weight lattice is
// solved, certified and re-verified by the solver-free checker
// (internal/cert). The summary is printed as JSON; with -frontier, the
// near-tight instances (ratio ≥ 2 − eps) are archived to a JSON file, ready
// to feed fuzz corpora or regression suites. The run is an error — nonzero
// exit — if any instance fails certification or any certified ratio
// exceeds the paper's bound 2; a run cut short by -timeout is an error and
// prints no summary.
func runEnumerate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("enumerate", flag.ContinueOnError)
	var (
		minN     = fs.Int("min-n", 3, "smallest ring size")
		maxN     = fs.Int("max-n", 6, "largest ring size (≤ 10)")
		levels   = fs.Int("levels", 3, "integer weight levels 1..L (≤ 6)")
		grid     = fs.Int("grid", 8, "split-optimizer grid per instance")
		epsStr   = fs.String("eps", "1/2", "frontier threshold: archive ratio ≥ 2−eps")
		workers  = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		frontier = fs.String("frontier", "", "write frontier instances to this JSON file")
		timeout  = fs.Duration("timeout", 0, "abort the run after this long (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eps, ok := new(big.Rat).SetString(*epsStr)
	if !ok || eps.Sign() <= 0 {
		return fmt.Errorf("bad -eps %q", *epsStr)
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
		return fmt.Errorf("enumeration: %w", err)
	}

	out := struct {
		*enum.Summary
		Elapsed string `json:"elapsed"`
	}{sum, time.Since(start).Round(time.Millisecond).String()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if *frontier != "" {
		data, err := json.MarshalIndent(sum.Frontier, "", "  ")
		if err == nil {
			err = os.WriteFile(*frontier, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fmt.Errorf("frontier archive: %w", err)
		}
	}

	if n := len(sum.Failures); n > 0 {
		return fmt.Errorf("%d of %d instances failed certification (first: %s: %s)",
			n, sum.Instances, sum.Failures[0].Key, sum.Failures[0].Err)
	}
	maxR, ok := new(big.Rat).SetString(sum.MaxRatio)
	if !ok {
		return fmt.Errorf("unparsable max ratio %q", sum.MaxRatio)
	}
	if numeric.Two.Less(numeric.FromBig(maxR)) {
		return fmt.Errorf("max certified ratio %s at %s exceeds the Theorem 8 bound 2", sum.MaxRatio, sum.MaxKey)
	}
	return nil
}

// certifyAll certifies the whole enumeration in parallel on workers
// goroutines (0 = GOMAXPROCS) and summarizes it; a run cut short by the
// context is an error, not a partial summary.
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
