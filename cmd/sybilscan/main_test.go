package main

import (
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestRingsMode(t *testing.T) {
	out, err := runCapture(t, "rings", "-n", "6", "-trials", "5", "-grid", "16", "-top", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "top 3 of 5") || !strings.Contains(out, "ζ =") {
		t.Errorf("output:\n%s", out)
	}
}

func TestFamilyMode(t *testing.T) {
	out, err := runCapture(t, "family", "-kmax", "2", "-grid", "32", "-heavy", "1000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "k=0") || !strings.Contains(out, "k=2") || !strings.Contains(out, "limit=5/3") {
		t.Errorf("output:\n%s", out)
	}
}

func TestGeneralMode(t *testing.T) {
	out, err := runCapture(t, "general", "-n", "4", "-trials", "4", "-gridres", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "worst ratio") || !strings.Contains(out, "≤ 2") {
		t.Errorf("output:\n%s", out)
	}
}

func TestSweepMode(t *testing.T) {
	out, err := runCapture(t, "sweep", "-n", "9", "-grid", "24", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"incremental engine", "best sampled split", "solver:", "fixed-width", "caches:", "cold baseline (identical results)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestSweepModeCold(t *testing.T) {
	out, err := runCapture(t, "sweep", "-n", "7", "-grid", "12", "-cold")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cold engine") || strings.Contains(out, "cold baseline") {
		t.Errorf("output:\n%s", out)
	}
}

func TestDistributions(t *testing.T) {
	for _, d := range []string{"uniform", "skewed", "powers", "unit"} {
		if _, err := runCapture(t, "rings", "-n", "4", "-trials", "2", "-grid", "8", "-dist", d); err != nil {
			t.Errorf("dist %s: %v", d, err)
		}
	}
}

func TestScanErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"rings", "-dist", "weird"},
		{"family", "-heavy", "abc"},
	}
	for _, args := range cases {
		if _, err := runCapture(t, args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}
