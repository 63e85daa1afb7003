// Command perfbench is the repository's end-to-end benchmark. It hosts the
// real irshared handlers (and, for routed traffic, a cluster router) in its
// own process, drives them through the public client, checks every answer
// exactly, and prints one JSON result line. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports. A layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"core.new_instance_ms", "ms"},
	{"core.optimize_ms", "ms"},
	{"core.evals", "count"},
	{"bottleneck.solver_evals", "count"},
	{"bottleneck.fallbacks", "count"},
	{"bottleneck.warm_start_share", "ratio"},
	{"bottleneck.transfer_hit_share", "ratio"},
	{"bottleneck.tail_hit_share", "ratio"},
	{"core.eval_cache_hit_share", "ratio"},
	{"cert.build_ms", "ms"},
	{"cert.check_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.cache_hit_share", "ratio"},
	{"server.cache_evictions", "count"},
	{"server.request_ms", "ms"},
	{"server.batch_join_share", "ratio"},
	{"core.optimize_hot_ms", "ms"},
	{"cluster.hop_ms", "ms"},
	{"cluster.failovers", "count"},
	{"client.attempts_per_op", "count"},
	{"scenario.ksybil_ms", "ms"},
	{"scenario.topology_ms", "ms"},
	{"bottleneck.general_decompose_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.durability_ms", "ms"},
	{"jobs.append_us_per_point", "us"},
	{"jobs.wal_bytes_per_point", "bytes"},
	{"jobs.syncs_per_job", "count"},
	{"jobs.compactions", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"obs.tracing_share", "ratio"},
	{"unattributed_ms", "ms"},
}

// setupsPerRun is how many times a run sets its workload up; setup_s is the
// median, so one slow first set-up in a fresh process does not dominate.
const setupsPerRun = 5

// runConfig is one run's parameters.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	setups  int    // set-ups per run; setup_s is their median
	scratch string // parent of job-store directories
	smoke   bool   // tiny sizes, for the harness's own tests
}

// report is one run's outcome.
type report struct {
	attempted int
	failed    map[int]string // failure key → first failure
	weight    map[int]int    // ops behind a failure key, when not 1
	e2e       map[string]float64
	tailP     float64
	samples   int
	layers    map[string]float64
	host      hostRecord
	notes     []string // extra report lines
}

func newReport() *report {
	return &report{failed: map[int]string{}, weight: map[int]int{}, e2e: map[string]float64{}, layers: map[string]float64{}}
}

// failedOps counts the ops behind every failure key.
func (r *report) failedOps() int {
	n := 0
	for k := range r.failed {
		n += max(1, r.weight[k])
	}
	return n
}

// fail marks op i failed, keeping its first reason.
func (r *report) fail(i int, format string, args ...any) {
	if _, ok := r.failed[i]; !ok {
		r.failed[i] = fmt.Sprintf(format, args...)
	}
}

// timed fills the end-to-end metrics from a timed phase of ops operations
// with per-op latencies lats (milliseconds). tail is the workload's fixed
// tail percentile; a run too short to leave ten samples beyond it falls
// back to the highest percentile that does.
func (r *report) timed(p0, p1 phase, ops int, lats []float64, tail float64) {
	wall := p1.wall.Sub(p0.wall)
	r.samples = len(lats)
	r.tailP = min(tail, tailPercentile(len(lats)))
	r.e2e["throughput_per_s"] = share(float64(ops), wall.Seconds())
	r.e2e["latency_p50_ms"] = percentile(append([]float64(nil), lats...), 50)
	r.e2e["latency_tail_ms"] = percentile(append([]float64(nil), lats...), r.tailP)
	r.e2e["cpu_ms_per_op"] = share(ms(p1.cpu-p0.cpu), float64(ops))
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.host = newHostRecord(p0, p1)
	if p1.totalCPU > 0 {
		r.layers["runtime.allocs_per_op"] = share(float64(p1.mallocs-p0.mallocs), float64(ops))
		r.layers["runtime.alloc_mb_per_op"] = share(float64(p1.allocBytes-p0.allocBytes)/(1<<20), float64(ops))
		r.layers["runtime.gc_cpu_share"] = share(p1.gcCPU-p0.gcCPU, p1.totalCPU-p0.totalCPU)
	}
}

// repeatSetup builds a workload environment n times and keeps the last one.
// Each build returns its set-up duration; the result is their median.
func repeatSetup[E any](n int, build func() (E, *stack, time.Duration, error)) (E, *stack, float64, error) {
	var env E
	var st *stack
	var ds []float64
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
			debug.FreeOSMemory() // each set-up starts from the same heap
		}
		var d time.Duration
		var err error
		env, st, d, err = build()
		if err != nil {
			if st != nil {
				st.close()
			}
			return env, nil, 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return env, st, median(ds), nil
}

var workloads = map[string]func(runConfig) (*report, error){
	"ratio-cold": runRatioCold,
	"routed-hot": runRoutedHot,
	"jobs-scan":  runJobsScan,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricsOf(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "ratio-cold, routed-hot, jobs-scan, or all")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 10, "length of the timed phase")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds ≥ 1 and --trace 0|1")
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace == 1)
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want %s or all)", *workload, strings.Join(workloadNames(), ", "))
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "data"))
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, setups: setupsPerRun, scratch: scratch,
	}
	rep, err := wl(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	return printReport(*workload, cfg, rep)
}

func printReport(name string, cfg runConfig, rep *report) error {
	host, _ := json.Marshal(rep.host)
	e2e, _ := json.Marshal(metricsOf(endToEnd, rep.e2e))
	fmt.Printf("workload %s seed %d seconds %.0f trace %v\n", name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Printf("host %s\n", host)
	fmt.Printf("tail percentile p%g over %d samples\n", rep.tailP, rep.samples)
	fmt.Printf("e2e %s\n", e2e)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	idx := make([]int, 0, len(rep.failed))
	for i := range rep.failed {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		fmt.Printf("failed op %d: %s\n", i, rep.failed[i])
	}
	res := result{Correct: len(rep.failed) == 0, Attempted: rep.attempted, Failed: rep.failedOps()}
	if cfg.trace {
		res.Metrics = metricsOf(perLayer, rep.layers)
	} else {
		res.Metrics = metricsOf(endToEnd, rep.e2e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload in a fresh process of its own and prints the
// end-to-end metrics side by side; with traced, each workload also gets a
// traced run, whose own end-to-end numbers show the harness's overhead.
func runAll(seed int64, seconds int, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	total := result{Metrics: map[string]metricValue{}}
	for _, name := range workloadNames() {
		modes := []int{0}
		if traced {
			modes = append(modes, 1)
		}
		for _, tr := range modes {
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(tr))
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			res, e2e, perr := parseRun(out)
			if perr != nil {
				return fmt.Errorf("%s (trace %d): %v; %v", name, tr, runErr, perr)
			}
			fmt.Printf("== %s trace=%d: attempted %d failed %d correct %v\n", name, tr, res.Attempted, res.Failed, res.Correct)
			for _, d := range endToEnd {
				fmt.Printf("   %-22s %14.4f %s\n", d.name, e2e[d.name].Value, d.unit)
				if tr == 0 {
					total.Metrics[name+"/"+d.name] = e2e[d.name]
				}
			}
			if tr == 1 {
				for _, d := range perLayer {
					fmt.Printf("   %-32s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
				}
			}
			ok = ok && res.Correct && runErr == nil
			total.Attempted += res.Attempted
			total.Failed += res.Failed
		}
	}
	total.Correct = ok
	line, _ := json.Marshal(total)
	fmt.Println(string(line))
	if !ok {
		return errors.New("some runs failed")
	}
	return nil
}

// parseRun reads a child run's e2e line and final result line.
func parseRun(out []byte) (result, map[string]metricValue, error) {
	var res result
	var e2e map[string]metricValue
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "e2e "); ok {
			if err := json.Unmarshal([]byte(rest), &e2e); err != nil {
				return res, nil, err
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, nil, fmt.Errorf("no result line: %w", err)
	}
	return res, e2e, nil
}
