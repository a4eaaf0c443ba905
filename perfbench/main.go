// Command perfbench is the repository benchmark. It drives one workload
// (figures, campaign or serve) through the public entry points of the
// simulator and its service in this one process, checks every output, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics derived
// from spans (--trace 1) as the last line of standard output.
//
//	go build -o perfbench . && ./perfbench --workload figures --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many cold set-ups an untraced run measures: its own
// and those of setupRepeats-1 child processes that only set up. setup_s is
// the median, each measured from its process's start.
const setupRepeats = 3

// errSetupOnly ends a --setup-only process once its set-up is done.
var errSetupOnly = errors.New("set-up only")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	window   time.Duration // the measured window (--seconds)
	traced   bool
	workers  int
	outDir   string
	started  time.Time
	// setupOnly makes the process stop after its set-up and print how long
	// the set-up took; setupSeconds starts such processes.
	setupOnly bool

	attempted, failed int
	metrics           map[string]metric
	setups            []float64 // seconds
	sim               map[string]float64
	digest            string
}

// endToEnd lists the untraced metrics every workload reports; README.md
// defines the light and heavy operation of each workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"light_per_s", "1/s"},
	{"heavy_per_s", "1/s"},
	{"light_p50_ms", "ms"},
	{"light_p90_ms", "ms"},
	{"heavy_p50_ms", "ms"},
	{"heavy_p90_ms", "ms"},
}

// perLayer lists the traced metrics. A layer the workload never reaches
// reports 0. Names marked sim in README.md are simulated counts over a fixed
// input set and must repeat exactly on the same seed.
var perLayer = []struct{ name, unit string }{
	{"cpu.run_ns_per_cycle", "ns/cycle"},
	{"cpu.run_ns_per_inst", "ns/inst"},
	{"cpu.reset_us", "us"},
	{"cpu.new_ms", "ms"},
	{"cpu.cycles_per_run", "cycles"},
	{"cpu.sim_cycles", "cycles"},
	{"cpu.committed", "count"},
	{"cpu.ipc", "inst/cycle"},
	{"cpu.rob_full_cycles", "cycles"},
	{"cpu.squashed", "count"},
	{"runahead.host_cost_ratio", "ratio"},
	{"runahead.episodes", "count"},
	{"runahead.cycles_share", "ratio"},
	{"runahead.inv_branches", "count"},
	{"runahead.pseudo_retired", "count"},
	{"runahead.fig7_speedup_pct", "%"},
	{"branch.mispredict_rate", "ratio"},
	{"mem.l1d_misses", "count"},
	{"mem.l2_misses", "count"},
	{"mem.l3_misses", "count"},
	{"secure.sl_waits", "count"},
	{"proggen.generate_us", "us"},
	{"iss.run_us", "us"},
	{"difftest.check_seed_ms_p50", "ms"},
	{"difftest.check_seed_ms_p99", "ms"},
	{"difftest.divergences", "count"},
	{"leak.check_seed_ms_p50", "ms"},
	{"leak.check_seed_ms_p99", "ms"},
	{"leak.findings_per_run", "ratio"},
	{"sweep.busy_share", "ratio"},
	{"sweep.gate_wait_ms_mean", "ms"},
	{"core.pool_hit_ratio", "ratio"},
	{"core.hashkey_us", "us"},
	{"prog.decode_us", "us"},
	{"prog.encode_us", "us"},
	{"prog.hash_us", "us"},
	{"asm.parse_us", "us"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.evictions", "count"},
	{"rescache.singleflight_merges", "count"},
	{"server.handler_p50_ms.hit", "ms"},
	{"server.handler_p50_ms.miss", "ms"},
	{"server.simulations", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

var workloads = map[string]func(context.Context, *run) error{
	"figures":  runFigures,
	"campaign": runCampaign,
	"serve":    runServe,
}

func main() {
	started := time.Now()
	name := flag.String("workload", "", "workload to run: figures, campaign or serve")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for span files and the determinism record")
	setupOnly := flag.Bool("setup-only", false, "only set up, then print the set-up time in seconds")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload figures|campaign|serve --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workers:  runtime.NumCPU(),
		outDir:   *outDir,
		started:  started,
		metrics:  map[string]metric{},
		sim:      map[string]float64{},

		setupOnly: *setupOnly,
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	err := fn(context.Background(), r)
	if r.setupOnly && errors.Is(err, errSetupOnly) {
		fmt.Println(strconv.FormatFloat(r.setups[0], 'g', -1, 64))
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if !r.traced {
		if err := r.setupSeconds(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
			os.Exit(1)
		}
	}
	r.checkDeterminism()
	if err := r.print(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// attempt counts n operations as attempted.
func (r *run) attempt(n int) { r.attempted += n }

// check counts one attempted operation, failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts one failed operation and says why on standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL: %s\n", r.workload, fmt.Sprintf(format, args...))
}

func (r *run) set(name string, v float64) {
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				r.metrics[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

// setSim records a simulated count: a per-layer metric that must repeat
// exactly on the same seed.
func (r *run) setSim(name string, v float64) {
	r.set(name, v)
	r.sim[name] = v
}

// setup runs the workload's set-up once and records its duration from
// process start. In a --setup-only process it then returns errSetupOnly.
func setup[T any](r *run, fn func() (T, error)) (T, error) {
	out, err := fn()
	if err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(r.started).Seconds())
	if r.setupOnly {
		return out, errSetupOnly
	}
	return out, nil
}

// setupSeconds measures setupRepeats-1 more cold set-ups, each in a fresh
// process of this binary with the same workload, seed and window that stops
// after its set-up, so no set-up reuses another's warm machines. They run
// one at a time after the measured window.
func (r *run) setupSeconds() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 1; i < setupRepeats; i++ {
		cmd := exec.Command(exe, "--workload", r.workload, "--seed", strconv.FormatInt(r.seed, 10),
			"--seconds", strconv.Itoa(int(r.window.Seconds())), "--trace", "0", "--out", r.outDir, "--setup-only")
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set-up process: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		v, err := strconv.ParseFloat(lines[len(lines)-1], 64)
		if err != nil {
			return fmt.Errorf("set-up process printed %q: %w", stdout.String(), err)
		}
		r.setups = append(r.setups, v)
	}
	return nil
}

// traceWindows splits the measured window: an untraced run uses all of it,
// a traced run measures half untraced (for trace.overhead_ratio) and half
// traced.
func (r *run) traceWindows() (untraced, traced time.Duration) {
	if !r.traced {
		return r.window, 0
	}
	return r.window / 2, r.window - r.window/2
}

// checkDeterminism compares the output digest and the simulated counts
// against the record an earlier run of the same binary with the same
// workload, seed and window left behind, and writes the record when there is
// none. Records are keyed by the binary's hash, so a commit that changes the
// simulator on purpose starts fresh; across commits, compare the printed
// digests.
func (r *run) checkDeterminism() {
	if r.digest != "" {
		fmt.Printf("sha256 %s seed=%d %s\n", r.workload, r.seed, r.digest)
	}
	build, err := executableHash()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: determinism record skipped: %v\n", err)
		return
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("record-%s-%d-%d-%s.json", r.workload, r.seed, int(r.window.Seconds()), build))
	type record struct {
		Digest string             `json:"digest"`
		Sim    map[string]float64 `json:"sim,omitempty"`
	}
	var prev record
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &prev) == nil {
		r.check(prev.Digest == r.digest, "output digest %s differs from %s recorded by an earlier run on this seed", r.digest, prev.Digest)
		for name, v := range r.sim {
			if old, ok := prev.Sim[name]; ok {
				r.check(old == v, "simulated count %s = %v differs from %v recorded by an earlier run on this seed", name, v, old)
			}
		}
		for name, v := range prev.Sim {
			if _, ok := r.sim[name]; !ok {
				r.sim[name] = v
			}
		}
	}
	data, err := json.Marshal(record{Digest: r.digest, Sim: r.sim})
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: determinism record not written: %v\n", err)
	}
}

// print writes the human-readable metric lines and then the result object
// as the last line of standard output.
func (r *run) print() error {
	list := endToEnd
	if r.traced {
		list = perLayer
	} else {
		r.set("setup_s", median(r.setups))
		r.set("peak_rss_mb", peakRSSMB())
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(list))
	for _, m := range list {
		v, ok := r.metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.fail("metric %s is not a finite number", m.name)
			res.Failed = r.failed
			v.Value = 0
		}
		res.Metrics[m.name] = v
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setLatency sets a class's median and 90th-percentile latency. The 99th
// percentile of the serve workload moved by up to 40% between runs of the
// same code on a shared 2-core host, so the bounded tail metric is p90.
func (r *run) setLatency(class string, ds []time.Duration) {
	r.set(class+"_p50_ms", ms(quantile(ds, 0.5)))
	r.set(class+"_p90_ms", ms(quantile(ds, 0.9)))
}

// executableHash names the running binary by the first 12 hex digits of
// its sha256.
func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeSpans stores a traced run's spans next to the determinism record.
func (r *run) writeSpans(tr *tracer) {
	path := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	fmt.Printf("spans %s\n", path)
}
