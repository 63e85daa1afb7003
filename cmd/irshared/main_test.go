package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// TestGracefulShutdown boots the full binary path (flags, server, signal
// handling), verifies it serves, then delivers SIGTERM and expects a clean
// drain.
func TestGracefulShutdown(t *testing.T) {
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-log", "json", "-drain", "5s"})
	}()

	base := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not come up at %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// signal.NotifyContext has SIGTERM claimed, so self-delivery drains the
	// server instead of killing the test process.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
}

// TestTraceAndPprofFlags boots with tracing and pprof enabled and checks
// both debug surfaces respond before draining.
func TestTraceAndPprofFlags(t *testing.T) {
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", addr, "-log", "json", "-drain", "5s",
			"-trace-buffer", "8", "-trace-retention", "1m", "-pprof",
		})
	}()

	base := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not come up at %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/decompose", "application/json",
		strings.NewReader(`{"graph":{"ring":["1","2","3"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompose status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id header with -trace-buffer 8")
	}
	tr, err := http.Get(base + "/debug/trace?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace?id=%s status %d", id, tr.StatusCode)
	}
	pp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", pp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-log", "yaml"}); err == nil {
		t.Fatal("bad -log format accepted")
	}
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunFailsBeforeServing: a data dir that cannot hold the job store and
// an address that cannot be bound each end run with an error.
func TestRunFailsBeforeServing(t *testing.T) {
	file := t.TempDir() + "/not-a-dir"
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data-dir", file}); err == nil {
		t.Fatal("a file accepted as -data-dir")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := run([]string{"-addr", l.Addr().String()}); err == nil {
		t.Fatal("a bound address accepted as -addr")
	}
}

// TestZeroDisables: -cache-size 0 and -trace-buffer 0 turn the instance
// cache and request tracing off, so /debug/trace answers 404 and no answer
// carries a trace id.
func TestZeroDisables(t *testing.T) {
	base, done := bootServer(t, "-cache-size", "0", "-trace-buffer", "0")
	resp, err := http.Post(base+"/v1/utilities", "application/json",
		strings.NewReader(`{"graph":{"ring":["1","2","3"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Trace-Id") != "" {
		t.Fatalf("utilities: %d, trace id %q", resp.StatusCode, resp.Header.Get("X-Trace-Id"))
	}
	if resp, err = http.Get(base + "/debug/trace?id=1"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace with tracing off: %d", resp.StatusCode)
	}
	drain(t, done)
}
