package fault

import (
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"time"
)

// FromFlags builds the injector a daemon's -chaos, -chaos-allow and
// -chaos-seed flags ask for, nil when spec is empty. Chaos is strictly
// opt-in twice over: spec names the faults, and allow acknowledges that a
// production-looking daemon is about to fail requests on purpose. One
// without the other is refused. An armed injector is announced on log.
func FromFlags(spec string, allow bool, seed uint64, log *slog.Logger) (*Injector, error) {
	if spec == "" {
		if allow {
			return nil, errors.New("-chaos-allow given without -chaos")
		}
		return nil, nil
	}
	if !allow {
		return nil, errors.New("-chaos requires -chaos-allow (fault injection deliberately fails requests)")
	}
	rules, err := Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("bad -chaos spec: %w", err)
	}
	inj, err := New(seed, rules...)
	if err != nil {
		return nil, fmt.Errorf("bad -chaos spec: %w", err)
	}
	log.Warn("chaos mode: fault injection armed", "spec", spec, "seed", seed)
	return inj, nil
}

// Parse compiles the -chaos flag grammar into rules:
//
//	spec    = rule *( ";" rule )
//	rule    = site "=" kind ":" rate [ ":" arg ] *( ":" option )
//	site    = registered name | "prefix.*" | "*"
//	kind    = "error" | "latency" | "panic"
//	rate    = float in (0,1]            (probabilistic, seeded)
//	        | "1/" integer              (deterministic every-Nth hit)
//	arg     = duration                  (required for latency, e.g. "5ms")
//	option  = "limit=" integer          (cap total injections from the rule)
//
// Examples:
//
//	decompose.dinkelbach=error:0.02
//	maxflow.push=panic:1/500;server.compute=latency:0.1:5ms
//	*=error:1/100:limit=3
//
// Parse only builds rules; New validates sites and ranges, so callers do
// Parse → New and report either error to the operator.
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: rule %q: want site=kind:rate", part)
		}
		fields := strings.Split(rest, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("fault: rule %q: want site=kind:rate", part)
		}
		r := Rule{Site: strings.TrimSpace(site)}
		switch fields[0] {
		case "error":
			r.Kind = KindError
		case "latency":
			r.Kind = KindLatency
		case "panic":
			r.Kind = KindPanic
		default:
			return nil, fmt.Errorf("fault: rule %q: unknown kind %q (want error, latency, or panic)", part, fields[0])
		}
		if denom, ok := strings.CutPrefix(fields[1], "1/"); ok {
			n, err := strconv.ParseInt(denom, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("fault: rule %q: bad every-Nth rate %q", part, fields[1])
			}
			r.Every = n
		} else {
			rate, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: bad rate %q", part, fields[1])
			}
			r.Rate = rate
		}
		opts := fields[2:]
		if r.Kind == KindLatency {
			if len(opts) == 0 {
				return nil, fmt.Errorf("fault: rule %q: latency needs a duration (e.g. latency:0.1:5ms)", part)
			}
			d, err := time.ParseDuration(opts[0])
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: bad latency duration %q", part, opts[0])
			}
			r.Latency = d
			opts = opts[1:]
		}
		for _, opt := range opts {
			val, ok := strings.CutPrefix(opt, "limit=")
			if !ok {
				return nil, fmt.Errorf("fault: rule %q: unknown option %q", part, opt)
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("fault: rule %q: bad limit %q", part, val)
			}
			r.Limit = n
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty chaos spec")
	}
	return rules, nil
}
