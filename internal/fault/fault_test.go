package fault

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func mustNew(t *testing.T, seed uint64, rules ...Rule) *Injector {
	t.Helper()
	inj, err := New(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestDisabledPathIsNil(t *testing.T) {
	var inj *Injector
	if err := inj.Strike(SiteDinkelbach); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	inj.StrikePanic(SiteMaxflowPush) // must not panic
	if inj.Stats() != nil {
		t.Fatal("nil injector has stats")
	}
	if got := inj.String(); got != "<disabled>" {
		t.Fatalf("nil injector String() = %q", got)
	}

	ctx := context.Background()
	if ContextWith(ctx, nil) != ctx {
		t.Fatal("ContextWith(nil) allocated a new context")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on bare context not nil")
	}
	if err := Hit(ctx, SiteServerCompute); err != nil {
		t.Fatalf("Hit on bare context injected: %v", err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	inj := mustNew(t, 1, Rule{Site: SiteServerCompute, Kind: KindError, Every: 1})
	ctx := ContextWith(context.Background(), inj)
	if FromContext(ctx) != inj {
		t.Fatal("FromContext did not return the installed injector")
	}
	err := Hit(ctx, SiteServerCompute)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Hit = %v, want ErrInjected", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != SiteServerCompute || fe.N != 1 {
		t.Fatalf("Hit error = %#v", err)
	}
	// Unarmed site on an armed injector is still clean.
	if err := Hit(ctx, SiteCacheGet); err != nil {
		t.Fatalf("unarmed site injected: %v", err)
	}
}

func TestEveryNth(t *testing.T) {
	inj := mustNew(t, 7, Rule{Site: SiteSweepPoint, Kind: KindError, Every: 3})
	var injected []int
	for i := 1; i <= 12; i++ {
		if err := inj.Strike(SiteSweepPoint); err != nil {
			injected = append(injected, i)
		}
	}
	want := []int{3, 6, 9, 12}
	if fmt.Sprint(injected) != fmt.Sprint(want) {
		t.Fatalf("every-3rd injected at %v, want %v", injected, want)
	}
	st := inj.Stats()[SiteSweepPoint]
	if st.Hits != 12 || st.Injected != 4 {
		t.Fatalf("stats = %+v, want 12 hits / 4 injected", st)
	}
}

func TestRateDeterminism(t *testing.T) {
	pattern := func(seed uint64) []bool {
		inj := mustNew(t, seed, Rule{Site: SiteDinkelbach, Kind: KindError, Rate: 0.3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = inj.Strike(SiteDinkelbach) != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i+1)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("rate 0.3 over 200 hits injected %d times — not probabilistic", hits)
	}
	// A different seed should give a different pattern (overwhelmingly).
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical injection patterns")
	}
}

func TestPanicKind(t *testing.T) {
	inj := mustNew(t, 1, Rule{Site: SiteMaxflowPush, Kind: KindPanic, Every: 2})
	if err := inj.Strike(SiteMaxflowPush); err != nil {
		t.Fatalf("hit 1 injected: %v", err)
	}
	func() {
		defer func() {
			r := recover()
			pv, ok := r.(*PanicValue)
			if !ok {
				t.Fatalf("recovered %T (%v), want *PanicValue", r, r)
			}
			if pv.Site != SiteMaxflowPush || pv.N != 2 {
				t.Fatalf("panic value = %+v", pv)
			}
		}()
		inj.Strike(SiteMaxflowPush)
		t.Fatal("hit 2 did not panic")
	}()
}

func TestStrikePanicEscalatesErrors(t *testing.T) {
	inj := mustNew(t, 1, Rule{Site: SiteMaxflowPush, Kind: KindError, Every: 1})
	defer func() {
		r := recover()
		pv, ok := r.(*PanicValue)
		if !ok || pv.Site != SiteMaxflowPush {
			t.Fatalf("recovered %T (%v), want *PanicValue at maxflow.push", r, r)
		}
	}()
	inj.StrikePanic(SiteMaxflowPush)
	t.Fatal("StrikePanic did not panic on an error rule")
}

func TestLatencyKind(t *testing.T) {
	const d = 20 * time.Millisecond
	inj := mustNew(t, 1, Rule{Site: SiteServerCompute, Kind: KindLatency, Every: 1, Latency: d})
	start := time.Now()
	if err := inj.Strike(SiteServerCompute); err != nil {
		t.Fatalf("latency rule returned error: %v", err)
	}
	if took := time.Since(start); took < d {
		t.Fatalf("latency injection slept %v, want >= %v", took, d)
	}
}

func TestLimit(t *testing.T) {
	inj := mustNew(t, 1, Rule{Site: SiteCacheGet, Kind: KindError, Every: 1, Limit: 2})
	injected := 0
	for i := 0; i < 10; i++ {
		if inj.Strike(SiteCacheGet) != nil {
			injected++
		}
	}
	if injected != 2 {
		t.Fatalf("limit=2 rule injected %d times", injected)
	}
	st := inj.Stats()[SiteCacheGet]
	if st.Hits != 10 || st.Injected != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLimitConcurrent(t *testing.T) {
	inj := mustNew(t, 1, Rule{Site: SiteCacheGet, Kind: KindError, Every: 1, Limit: 5})
	var mu sync.Mutex
	injected := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if inj.Strike(SiteCacheGet) != nil {
					mu.Lock()
					injected++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if injected != 5 {
		t.Fatalf("limit=5 under concurrency injected %d times", injected)
	}
}

func TestWildcards(t *testing.T) {
	inj := mustNew(t, 1, Rule{Site: "*", Kind: KindError, Every: 1})
	for _, site := range Sites() {
		if err := inj.Strike(site); !errors.Is(err, ErrInjected) {
			t.Fatalf("wildcard rule missed site %s: %v", site, err)
		}
	}

	inj = mustNew(t, 1, Rule{Site: "server.*", Kind: KindError, Every: 1})
	if err := inj.Strike(SiteServerCompute); !errors.Is(err, ErrInjected) {
		t.Fatal("server.* missed server.compute")
	}
	if err := inj.Strike(SiteServerBatch); !errors.Is(err, ErrInjected) {
		t.Fatal("server.* missed server.batch")
	}
	if err := inj.Strike(SiteDinkelbach); err != nil {
		t.Fatalf("server.* armed decompose.dinkelbach: %v", err)
	}
}

func TestNewRejectsBadRules(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
	}{
		{"unknown site", Rule{Site: "no.such.site", Kind: KindError, Every: 1}},
		{"dead wildcard", Rule{Site: "nothing.*", Kind: KindError, Every: 1}},
		{"zero rate", Rule{Site: SiteDinkelbach, Kind: KindError}},
		{"rate above one", Rule{Site: SiteDinkelbach, Kind: KindError, Rate: 1.5}},
		{"negative every", Rule{Site: SiteDinkelbach, Kind: KindError, Every: -2}},
		{"latency without duration", Rule{Site: SiteDinkelbach, Kind: KindLatency, Every: 1}},
	}
	for _, tc := range cases {
		if _, err := New(1, tc.rule); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.rule)
		}
	}
}

func TestParse(t *testing.T) {
	rules, err := Parse("decompose.dinkelbach=error:0.02; maxflow.push=panic:1/500 ;server.compute=latency:0.1:5ms:limit=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
	if r := rules[0]; r.Site != SiteDinkelbach || r.Kind != KindError || r.Rate != 0.02 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if r := rules[1]; r.Site != SiteMaxflowPush || r.Kind != KindPanic || r.Every != 500 {
		t.Fatalf("rule 1 = %+v", r)
	}
	if r := rules[2]; r.Site != SiteServerCompute || r.Kind != KindLatency ||
		r.Rate != 0.1 || r.Latency != 5*time.Millisecond || r.Limit != 3 {
		t.Fatalf("rule 2 = %+v", r)
	}
	if _, err := New(20260805, rules...); err != nil {
		t.Fatalf("parsed rules rejected by New: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ;  ",
		"nosite",
		"decompose.dinkelbach=explode:0.5",
		"decompose.dinkelbach=error",
		"decompose.dinkelbach=error:zero",
		"decompose.dinkelbach=error:1/0",
		"decompose.dinkelbach=error:1/x",
		"server.compute=latency:0.5",
		"server.compute=latency:0.5:fast",
		"decompose.dinkelbach=error:0.5:limit=0",
		"decompose.dinkelbach=error:0.5:bogus=1",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// TestFromFlags pins the daemons' chaos gating: no spec is no injector,
// each half of the double opt-in alone is refused, a bad spec fails in
// Parse or in New, and an armed injector is announced once.
func TestFromFlags(t *testing.T) {
	var logged bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logged, nil))
	cases := []struct {
		spec  string
		allow bool
		want  string // error substring; "" = success
	}{
		{"", false, ""},
		{"", true, "-chaos-allow given without -chaos"},
		{"server.compute=error:1", false, "-chaos requires -chaos-allow"},
		{"nonsense", true, "bad -chaos spec: fault: rule"},
		{"no.such.site=error:1", true, "bad -chaos spec"},
		{"server.compute=error:1/2", true, ""},
	}
	for _, tc := range cases {
		inj, err := FromFlags(tc.spec, tc.allow, 5, log)
		switch {
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("FromFlags(%q, %v) = %v, want error containing %q", tc.spec, tc.allow, err, tc.want)
		case tc.want == "" && err != nil:
			t.Errorf("FromFlags(%q, %v): %v", tc.spec, tc.allow, err)
		case (inj != nil) != (tc.want == "" && tc.spec != ""):
			t.Errorf("FromFlags(%q, %v) injector = %v", tc.spec, tc.allow, inj)
		}
	}
	if n := strings.Count(logged.String(), "chaos mode: fault injection armed"); n != 1 {
		t.Fatalf("armed warning logged %d times:\n%s", n, logged.String())
	}
}

func TestRuleString(t *testing.T) {
	rules, err := Parse("sweep.point=latency:1/4:2ms:limit=7")
	if err != nil {
		t.Fatal(err)
	}
	got := rules[0].String()
	want := "sweep.point=latency:1/4:2ms:limit=7"
	if got != want {
		t.Fatalf("Rule.String() = %q, want %q", got, want)
	}
	// String must round-trip through Parse.
	again, err := Parse(got)
	if err != nil {
		t.Fatalf("Rule.String() does not re-parse: %v", err)
	}
	if again[0] != rules[0] {
		t.Fatalf("round trip changed rule: %+v vs %+v", again[0], rules[0])
	}
}

func BenchmarkHitDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Hit(ctx, SiteDinkelbach); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrikeNil(b *testing.B) {
	var inj *Injector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := inj.Strike(SiteMaxflowPush); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrikeArmedMiss(b *testing.B) {
	inj, err := New(1, Rule{Site: SiteDinkelbach, Kind: KindError, Rate: 1e-9})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := inj.Strike(SiteDinkelbach); err != nil {
			b.Fatal(err)
		}
	}
}
