// Command locbench is the localization benchmark: it drives full
// Algorithm 2 localizations (core.LocateContext) and eolserve requests
// (serve.Server.ServeHTTP) through one closed-loop client, checks every
// outcome against facts computed apart from the locator, and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
//
// Usage, from the repository root:
//
//	bash locbench/run.sh --workload paper9 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics; the full report is also
// written to --out. See locbench/README.md for the workloads, metrics
// and reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setup_s is the median of repeated fresh preparations, since one takes
// only tens of milliseconds on paper9: at least minSetupReps of them, and
// more, up to maxSetupReps, until setupBudget has passed, so that the
// median spans a few seconds of the machine's speed.
const (
	minSetupReps = 7
	maxSetupReps = 40
	setupBudget  = 3 * time.Second
)

// procs is the benchmark's GOMAXPROCS, and so, by the library defaults,
// the size of the verification pool and of the server's session pool.
// With two Ps on a 2-vCPU machine the process kept both vCPUs busy (a
// paper9 localization used about 2.1 ms of CPU time for a median wall
// time of 1.4 ms), so anything else running on the machine slowed it: a
// busy loop or a second benchmark process beside it raised paper9's
// locate_ms by 6-10%. With one P they left it unchanged.
const procs = 1

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short runs one set-up and one round per phase: the benchmark's own
	// test uses it to keep every check exercised.
	short bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the machine-readable file: the result plus the figures that
// are printed for reference but not gated.
type report struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Result   result             `json:"result"`
	Info     map[string]float64 `json:"info"`
	Subjects []subjectTiming    `json:"subjects"`
	Errors   []string           `json:"errors,omitempty"`
}

type subjectTiming struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	Median  float64 `json:"median_ms"`
	Q1      float64 `json:"q1_ms"`
	Q3      float64 `json:"q3_ms"`
}

func main() {
	runtime.GOMAXPROCS(procs)
	var cfg config
	var traceFlag int
	var out string
	fs := flag.NewFlagSet("locbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: paper9, grep-long or serve-warm")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed (order of the round robin)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	fs.BoolVar(&cfg.short, "short", false, "one set-up and one round per phase, for tests")
	fs.StringVar(&out, "out", "", "machine-readable report file (default .bench_build/results/<workload>-seed<n>-trace<t>.json)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "locbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if out == "" {
		out = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, traceFlag))
	}
	rep, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locbench:", err)
		os.Exit(1)
	}
	if err := writeReport(out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "locbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// phase collects one measured loop's samples.
type phase struct {
	wall    map[*subject][]float64 // ms per operation, by subject
	cpu     time.Duration
	alloc   uint64
	live    []float64 // MB of live heap, one sample per GC cycle seen
	elapsed time.Duration
	ops     int
	failed  int
	correct bool
	errors  []string
}

func newPhase() *phase { return &phase{wall: map[*subject][]float64{}, correct: true} }

// fail records a failed operation; a failed check also makes the run
// incorrect.
func (p *phase) fail(err error, check bool) {
	p.failed++
	if check {
		p.correct = false
	}
	if len(p.errors) < 10 {
		p.errors = append(p.errors, err.Error())
	}
}

// locateMS is the mean over subjects of each subject's median time.
func (p *phase) locateMS(subjects []*subject) float64 {
	var meds []float64
	for _, s := range subjects {
		if w := p.wall[s]; len(w) > 0 {
			meds = append(meds, median(w))
		}
	}
	return mean(meds)
}

// rounds calls step on every subject, in an order the seeded rng
// shuffles anew each round, until d has passed; only whole rounds are
// run, so every run attempts each subject equally often.
func rounds(subjects []*subject, rng *rand.Rand, d time.Duration, short bool, step func(*subject)) {
	order := append([]*subject(nil), subjects...)
	start := time.Now()
	for {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, s := range order {
			step(s)
		}
		if short || time.Since(start) >= d {
			return
		}
	}
}

// measure runs the untraced operation loop and times each operation's
// wall clock, process CPU and heap allocation; checks run after the
// clock stops.
func measure(ctx context.Context, e *env, rng *rand.Rand, d time.Duration, short, direct bool) *phase {
	p := newPhase()
	rr := newRuntimeReader()
	cycles := rr.read().gcCycles
	start := time.Now()
	rounds(e.subjects, rng, d, short, func(s *subject) {
		op := e.op(ctx, s, direct)
		rt0 := rr.read()
		cpu0 := cpuTime()
		t0 := time.Now()
		check, err := op()
		wall := time.Since(t0)
		cpu1 := cpuTime()
		rt1 := rr.read()
		p.ops++
		p.cpu += cpu1 - cpu0
		p.alloc += rt1.allocBytes - rt0.allocBytes
		if rt1.gcCycles != cycles {
			cycles = rt1.gcCycles
			p.live = append(p.live, float64(rt1.liveBytes)/1e6)
		}
		if err != nil {
			p.fail(fmt.Errorf("%s: %w", s.name, err), false)
			return
		}
		if err := check(); err != nil {
			p.fail(err, true)
			return
		}
		p.wall[s] = append(p.wall[s], ms(wall))
	})
	p.elapsed = time.Since(start)
	if len(p.live) == 0 {
		p.live = append(p.live, float64(rr.read().liveBytes)/1e6)
	}
	return p
}

func run(ctx context.Context, cfg config, w io.Writer) (*report, error) {
	if _, err := casesOf(cfg.workload); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x10cbe4c4))
	d := time.Duration(cfg.seconds * float64(time.Second))
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Info: map[string]float64{}}
	var p *phase
	var subjects []*subject
	if cfg.trace {
		e, err := setup(ctx, cfg.workload, true)
		if err != nil {
			return nil, err
		}
		defer e.close()
		subjects = e.subjects
		// The same direct localization untraced, then traced: their
		// difference is the tracing overhead.
		runtime.GC()
		untraced := measure(ctx, e, rng, d/3, cfg.short, true)
		runtime.GC()
		var layers map[string]float64
		p, layers = measureTraced(ctx, e, rng, d-d/3, cfg.short)
		p.ops += untraced.ops
		p.failed += untraced.failed
		p.correct = p.correct && untraced.correct
		p.errors = append(untraced.errors, p.errors...)
		rep.Info["untraced_locate_ms"] = untraced.locateMS(subjects)
		layers["trace.overhead_ms"] = layers["trace.locate_ms"] - rep.Info["untraced_locate_ms"]
		rep.Result.Metrics = map[string]metric{}
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			rep.Result.Metrics[m.name] = metric{v, m.unit}
		}
	} else {
		var setupS []float64
		var e *env
		for begin := time.Now(); ; e.close() {
			runtime.GC()
			start := time.Now()
			var err error
			if e, err = setup(ctx, cfg.workload, false); err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(start).Seconds())
			if n := len(setupS); cfg.short || n >= maxSetupReps || n >= minSetupReps && time.Since(begin) >= setupBudget {
				break
			}
		}
		rep.Info["setup_reps"] = float64(len(setupS))
		defer e.close()
		subjects = e.subjects
		runtime.GC()
		p = measure(ctx, e, rng, d, cfg.short, false)
		n := float64(max(p.ops, 1))
		rep.Result.Metrics = map[string]metric{
			"setup_s":             {median(setupS), "s"},
			"locate_ms":           {p.locateMS(subjects), "ms"},
			"cpu_ms_per_locate":   {ms(p.cpu) / n, "ms"},
			"alloc_mb_per_locate": {float64(p.alloc) / n / 1e6, "MB"},
			"live_heap_mb":        {median(p.live), "MB"},
		}
		rep.Info["setup_q1_s"] = quantile(setupS, 0.25)
		rep.Info["setup_q3_s"] = quantile(setupS, 0.75)
		rep.Info["gc_cycles_seen"] = float64(len(p.live))
		rep.Info["max_live_heap_mb"] = quantile(p.live, 1)
	}
	rep.Result.Correct = p.correct
	rep.Result.Attempted = p.ops
	rep.Result.Failed = p.failed
	rep.Errors = p.errors
	fillInfo(rep, p, subjects)
	printReport(w, rep)
	return rep, nil
}

// fillInfo adds the figures printed for reference but not gated:
// sample counts, quartiles, tail percentiles and throughput.
func fillInfo(rep *report, p *phase, subjects []*subject) {
	var all []float64
	for _, s := range subjects {
		all = append(all, p.wall[s]...)
	}
	rep.Info["samples"] = float64(len(all))
	rep.Info["median_ms"] = median(all)
	rep.Info["q1_ms"] = quantile(all, 0.25)
	rep.Info["q3_ms"] = quantile(all, 0.75)
	// A tail percentile is reported only with at least ten samples
	// beyond it.
	if len(all) >= 100 {
		rep.Info["p90_ms"] = quantile(all, 0.90)
	}
	if len(all) >= 1000 {
		rep.Info["p99_ms"] = quantile(all, 0.99)
	}
	if p.elapsed > 0 {
		rep.Info["throughput_per_s"] = float64(p.ops) / p.elapsed.Seconds()
	}
	for _, s := range subjects {
		w := p.wall[s]
		rep.Subjects = append(rep.Subjects, subjectTiming{
			Name: s.name, Samples: len(w),
			Median: median(w), Q1: quantile(w, 0.25), Q3: quantile(w, 0.75),
		})
	}
}

func printReport(w io.Writer, rep *report) {
	mode := "end-to-end (untraced)"
	if rep.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "locbench %s seed=%d seconds=%g: %s\n", rep.Workload, rep.Seed, rep.Seconds, mode)
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Result.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintln(w, "  for reference (not gated):")
	info := make([]string, 0, len(rep.Info))
	for n := range rep.Info {
		info = append(info, n)
	}
	sort.Strings(info)
	for _, n := range info {
		fmt.Fprintf(w, "    %-32s %14.4f\n", n, rep.Info[n])
	}
	for _, s := range rep.Subjects {
		fmt.Fprintf(w, "    %-22s n=%-5d median %.4f ms  [q1 %.4f, q3 %.4f]\n", s.Name, s.Samples, s.Median, s.Q1, s.Q3)
	}
}
