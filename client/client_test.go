package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// fastBackoff keeps retry sleeps out of test wall-clock.
func fastBackoff() Option { return WithBackoff(time.Millisecond, 4*time.Millisecond) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func TestRetryOn503ThenSuccess(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Code: server.CodeBusy, Message: "busy"})
			return
		}
		writeJSON(w, http.StatusOK, UtilitiesResponse{Utilities: []string{"1"}, Total: "1", TotalWeight: "2"})
	}))
	defer ts.Close()
	c := New(ts.URL, fastBackoff(), WithSeed(1))
	resp, err := c.Utilities(context.Background(), &UtilitiesRequest{Graph: Graph{Path: []string{"2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != "1" || calls.Load() != 3 {
		t.Fatalf("total=%q calls=%d", resp.Total, calls.Load())
	}
}

// TestRetryAfterWaitsInRealTime is the one test here that waits out a real
// Retry-After: the chaos replay skips its waits, so this checks that a
// default client's backoff does sleep through the server's hint.
func TestRetryAfterWaitsInRealTime(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Code: server.CodeBusy, Message: "busy"})
			return
		}
		writeJSON(w, http.StatusOK, UtilitiesResponse{Utilities: []string{"1"}, Total: "1", TotalWeight: "2"})
	}))
	defer ts.Close()
	start := time.Now()
	resp, err := New(ts.URL).Utilities(context.Background(), &UtilitiesRequest{Graph: Graph{Path: []string{"2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retried after %v, before the 1s Retry-After", elapsed)
	}
	if resp.Total != "1" || calls.Load() != 2 {
		t.Fatalf("total=%q calls=%d", resp.Total, calls.Load())
	}
}

func TestRetryOnContainedPanic(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			writeJSON(w, http.StatusInternalServerError, ErrorResponse{Code: server.CodeInternalPanic, Message: "contained"})
			return
		}
		writeJSON(w, http.StatusOK, RatioResponse{Ratio: "1", LeqTwo: true})
	}))
	defer ts.Close()
	c := New(ts.URL, fastBackoff(), WithSeed(1))
	resp, err := c.Ratio(context.Background(), &RatioRequest{Graph: Graph{Ring: []string{"1", "1", "1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.LeqTwo || calls.Load() != 2 {
		t.Fatalf("resp=%+v calls=%d", resp, calls.Load())
	}
}

func TestNoRetryOnBadRequest(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Code: server.CodeBadGraph, Message: "nope", Detail: "why"})
	}))
	defer ts.Close()
	c := New(ts.URL, fastBackoff(), WithSeed(1))
	_, err := c.Decompose(context.Background(), &DecomposeRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Code != server.CodeBadGraph || apiErr.Status != 400 || apiErr.Retryable() {
		t.Fatalf("unexpected error %+v", apiErr)
	}
	if calls.Load() != 1 {
		t.Fatalf("retried a 400: %d calls", calls.Load())
	}
}

func TestMaxAttemptsExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Code: server.CodeOverloaded, Message: "shed"})
	}))
	defer ts.Close()
	c := New(ts.URL, fastBackoff(), WithSeed(1), WithMaxAttempts(3))
	_, err := c.Allocate(context.Background(), &AllocateRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeOverloaded {
		t.Fatalf("want overloaded APIError, got %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("want 3 attempts, got %d", calls.Load())
	}
}

func TestTransportErrorsRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Slam the connection so the client sees a transport error.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		writeJSON(w, http.StatusOK, UtilitiesResponse{Total: "0"})
	}))
	defer ts.Close()
	c := New(ts.URL, fastBackoff(), WithSeed(1))
	if _, err := c.Utilities(context.Background(), &UtilitiesRequest{}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("want 2 attempts, got %d", calls.Load())
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Code: server.CodeBusy, Message: "busy"})
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ts.URL, WithBackoff(time.Hour, time.Hour), WithSeed(1),
		WithRetryHook(func(int, error, time.Duration) { cancel() }))
	_, err := c.Sweep(ctx, &SweepRequest{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestDelayHonorsRetryAfterFloor(t *testing.T) {
	c := New("http://unused", fastBackoff(), WithSeed(1))
	apiErr := &APIError{Status: 429, Code: server.CodeOverloaded, RetryAfter: 2 * time.Second}
	for attempt := 1; attempt <= 4; attempt++ {
		if d := c.delay(attempt, apiErr); d < 2*time.Second {
			t.Fatalf("attempt %d: delay %v below Retry-After floor", attempt, d)
		}
	}
	// Without the header the backoff stays within its cap plus jitter.
	plain := &APIError{Status: 503, Code: server.CodeBusy}
	if d := c.delay(10, plain); d > 4*time.Millisecond {
		t.Fatalf("capped delay %v exceeds max", d)
	}
}

func TestJitterDeterministicWithSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		c := New("http://unused", WithBackoff(100*time.Millisecond, 5*time.Second), WithSeed(seed))
		var out []time.Duration
		err := &APIError{Status: 503, Code: server.CodeBusy}
		for a := 1; a <= 6; a++ {
			out = append(out, c.delay(a, err))
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	diff := false
	for i, d := range seq(43) {
		if d != a[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestParseRetryAfter(t *testing.T) {
	// Exact cases: delta-seconds, garbage, and dates that must clamp to 0.
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"1", time.Second}, {"30", 30 * time.Second}, {"-5", 0}, {"soon", 0},
		{"Fri, 31 Dec 1999 23:59:59 GMT", 0}, // HTTP-date in the past
		{"31 Dec 1999", 0},                   // not a legal HTTP-date layout
	} {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Fatalf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// HTTP-date cases resolve via time.Until, so check a window rather than
	// an exact value: a date ~90s out must land in (85s, 90s]. All three
	// layouts RFC 9110 grandfathers are accepted (IMF-fixdate, RFC 850,
	// asctime).
	future := time.Now().Add(90 * time.Second)
	for _, in := range []string{
		future.UTC().Format(http.TimeFormat),
		future.UTC().Format("Monday, 02-Jan-06 15:04:05 GMT"),
		future.UTC().Format(time.ANSIC),
	} {
		got := parseRetryAfter(in)
		if got <= 85*time.Second || got > 90*time.Second {
			t.Fatalf("parseRetryAfter(%q) = %v, want ~90s", in, got)
		}
	}
}

func TestAPIErrorStringAndNonJSONBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text gateway error", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := New(ts.URL, fastBackoff(), WithSeed(1), WithMaxAttempts(1))
	_, err := c.Ratio(context.Background(), &RatioRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Code != "http_502" || apiErr.Message != "plain text gateway error" {
		t.Fatalf("unexpected mapping: %+v", apiErr)
	}
	if apiErr.Error() == "" {
		t.Fatal("empty error string")
	}
}
