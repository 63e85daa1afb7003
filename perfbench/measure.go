package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// which it sorts in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// tailPercentile is the highest of p99, p90 and p50 that leaves at least ten
// samples beyond it under nearest-rank: p99 from 1000 samples, p90 from 100,
// p50 from 20. Smaller runs report the maximum (p100).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90, 50} {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return p
		}
	}
	return 100
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	return percentile(ys, 50)
}

// share is num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is VmHWM, the process's resident-set high-water mark, in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks reads the aggregate steal and total jiffies from /proc/stat.
func cpuTicks() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// phase samples the process counters at the edges of a timed phase.
type phase struct {
	wall       time.Time
	cpu        time.Duration
	steal, all float64
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// beginTimed starts a timed phase from the same memory state in every run:
// garbage left by the set-ups is collected and returned to the OS, and
// VmHWM restarts from the current resident set, so the peak read at the
// end of the phase belongs to the phase.
func beginTimed(withMem bool) phase {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: older kernels keep the process-wide peak
	return markPhase(withMem)
}

// markPhase samples the counters; withMem also reads runtime.MemStats,
// which stops the world, so untraced runs skip it.
func markPhase(withMem bool) phase {
	p := phase{wall: time.Now(), cpu: cpuTime()}
	p.steal, p.all = cpuTicks()
	if withMem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		p.mallocs, p.allocBytes = m.Mallocs, m.TotalAlloc
		metrics.Read(runtimeSamples)
		p.gcCPU = runtimeSamples[0].Value.Float64()
		p.totalCPU = runtimeSamples[1].Value.Float64()
	}
	return p
}

// hostRecord describes the machine and build a run measured.
type hostRecord struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	StealShare float64 `json:"steal_share"`
}

func newHostRecord(start, end phase) hostRecord {
	h := hostRecord{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		StealShare: share(end.steal-start.steal, end.all-start.all),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitSHA names the commit under measurement, or "unknown" when the working
// directory is not a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// promSnapshot is one scrape of a Prometheus text exposition, keyed by the
// full series name including labels.
type promSnapshot map[string]float64

func scrape(base string) (promSnapshot, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return parseProm(raw), nil
}

func parseProm(raw []byte) promSnapshot {
	snap := promSnapshot{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:i]] += v
	}
	return snap
}

// sum adds every series of metric name whose labels contain all of the
// given label fragments (e.g. `endpoint="/v1/ratio"`).
func (s promSnapshot) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		series, lbl, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta sums (after − before) of name over every snapshot pair.
func delta(before, after []promSnapshot, name string, labels ...string) float64 {
	d := 0.0
	for i := range before {
		d += after[i].sum(name, labels...) - before[i].sum(name, labels...)
	}
	return d
}

func scrapeAll(bases []string) ([]promSnapshot, error) {
	out := make([]promSnapshot, len(bases))
	for i, b := range bases {
		s, err := scrape(b)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// solverTally sums the split-evaluation counters of the instances a replay
// solved (core.Instance.EvalStats).
type solverTally struct {
	s                core.EvalStats
	evals, fallbacks []float64
}

func (t *solverTally) add(s core.EvalStats) {
	t.evals = append(t.evals, float64(s.Solver.Evals))
	t.fallbacks = append(t.fallbacks, float64(s.Solver.Fallbacks))
	sum := &t.s.Solver
	sum.Stage1Warm += s.Solver.Stage1Warm
	sum.Stage1Cold += s.Solver.Stage1Cold
	sum.TransferHits += s.Solver.TransferHits
	sum.TransferMisses += s.Solver.TransferMisses
	sum.TailHits += s.Solver.TailHits
	sum.TailMisses += s.Solver.TailMisses
	t.s.CacheHits += s.CacheHits
	t.s.CacheMisses += s.CacheMisses
}

// report fills the bottleneck.* metrics (per-instance means and hit shares)
// and core.eval_cache_hit_share.
func (t *solverTally) report(rep *report) {
	s := t.s.Solver
	rep.layers["bottleneck.solver_evals"] = mean(t.evals)
	rep.layers["bottleneck.fallbacks"] = mean(t.fallbacks)
	rep.layers["bottleneck.warm_start_share"] = share(float64(s.Stage1Warm), float64(s.Stage1Warm+s.Stage1Cold))
	rep.layers["bottleneck.transfer_hit_share"] = share(float64(s.TransferHits), float64(s.TransferHits+s.TransferMisses))
	rep.layers["bottleneck.tail_hit_share"] = share(float64(s.TailHits), float64(s.TailHits+s.TailMisses))
	rep.layers["core.eval_cache_hit_share"] = share(float64(t.s.CacheHits), float64(t.s.CacheHits+t.s.CacheMisses))
}
