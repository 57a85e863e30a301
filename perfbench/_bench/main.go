// Command perfbench is the repository's benchmark: it runs one named
// workload against the real program, checks the program's outputs, and
// prints every metric by name with its unit as the last line of standard
// output.
//
//	bash perfbench/run.sh --workload learn|match|ingest --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --regen-rules
//
// run.sh builds cmd/genlinkd and this command from the checkout and runs
// it from the checkout's root. The serving workloads (match, ingest)
// start that genlinkd binary as two fsync-batch partition leaders behind
// a genlinkd -route router; the learn workload calls the learner
// in-process. --trace 0 reports the end-to-end metrics; --trace 1 runs
// the same workload with spans recorded around the benchmark's calls
// into each layer, adds in-process replays of the layers, reports the
// per-layer metrics and writes the spans under .bench_build/trace/.
//
// The exit code is non-zero when a correctness check fails, when an
// operation fails, or when the run cannot start (its ports are taken, the
// checkout is incomplete). Every genlinkd process the run starts is
// killed before it exits, on every path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef is one reported metric; the tables below mirror
// BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON keeps them equal).
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every
// workload; each names the workload's own unit of work (see README).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"round_s", "s"},
	{"op_p50_ms", "ms"},
}

// perLayer are the metrics a traced run reports. A workload reports 0
// for a layer it never calls (learn bypasses linkindex, the WAL, HTTP
// and the router; match writes nothing after set-up).
var perLayer = []metricDef{
	{"tracing.overhead_ratio", "ratio"},
	// learn
	{"genlink.seeding_s", "s"},
	{"genlink.generation0_s", "s"},
	{"genlink.generation_ms_p50", "ms"},
	{"similarity.distance_calls", "count"},
	{"similarity.distance_s", "s"},
	{"similarity.levenshtein_s", "s"},
	{"transform.calls", "count"},
	{"transform.s", "s"},
	{"evalengine.fitness_batch_ms", "ms"},
	{"evalengine.dist_cache_hit_ratio", "ratio"},
	// match
	{"linkrouter.overhead_ms_p50", "ms"},
	{"genlinkd.http_overhead_ms_p50", "ms"},
	{"linkindex.query_ms_p50", "ms"},
	{"linkindex.candidates_per_query", "count"},
	{"linkindex.candidates_ms_p50", "ms"},
	{"evalengine.prefilter_pruned_per_query", "count"},
	{"evalengine.scored_per_query", "count"},
	{"evalengine.links_per_query", "count"},
	{"evalengine.useful_score_ratio", "ratio"},
	{"evalengine.score_us_mean", "us"},
	{"similarity.distance_calls_per_query", "count"},
	{"similarity.distance_s_per_query", "s"},
	{"linkindex.merge_us_p50", "us"},
	// ingest
	{"linkindex.apply_ms_p50", "ms"},
	{"linkindex.durable_apply_ms_p50", "ms"},
	{"linkindex.wal_ms_p50", "ms"},
	{"disk.fsync_ms_p50", "ms"},
	{"linkindex.wal_bytes_per_entity", "B"},
	{"linkindex.snapshot_s", "s"},
	{"linkindex.snapshot_bytes", "B"},
	{"linkindex.recover_s", "s"},
	{"linkindex.records_replayed", "count"},
	{"linkrouter.write_overhead_ms_p50", "ms"},
	{"genlinkd.http_write_overhead_ms_p50", "ms"},
	{"linkindex.query_under_write_ms_p50", "ms"},
	{"loadgen.lag_ms_tail", "ms"},
	{"loadgen.read_p50_ms", "ms"},
	{"genlinkd.restart_recovery_s", "s"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	genlinkd string // the genlinkd binary under test
	benchDir string // this benchmark's directory (served rules)
	workDir  string // scratch space for this run, removed at exit
}

// report collects what a workload measured.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	checks    []string // failed correctness checks
	notes     []string // human-readable lines for standard error
	tr        *tracer  // nil unless --trace 1
}

func (r *report) failf(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o options, rep *report) error{
	"learn":  runLearn,
	"match":  runMatch,
	"ingest": runIngest,
}

func main() {
	var (
		o     options
		trace int
		regen bool
		round int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: learn, match or ingest")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement budget in seconds (sets the number of rounds)")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	flag.StringVar(&o.genlinkd, "genlinkd", ".bench_build/bin/genlinkd", "genlinkd binary under test")
	flag.StringVar(&o.benchDir, "bench-dir", "perfbench", "the benchmark's directory")
	flag.BoolVar(&regen, "regen-rules", false, "learn the served rules anew and write them to <bench-dir>/rules")
	flag.IntVar(&round, "learn-round", -1, "internal: run one learn round in this process and print it as JSON")
	flag.Parse()
	o.trace = trace == 1

	if round >= 0 {
		if err := runLearnRound(o.seed, round); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: learn round:", err)
			os.Exit(1)
		}
		return
	}
	if regen {
		if err := regenRules(o.benchDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload learn|match|ingest, --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	os.Exit(execute(o, run))
}

// execute runs one workload and prints its result; it returns the exit
// code. The work directory and every child process are gone when it
// returns.
func execute(o options, run func(context.Context, options, *report) error) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.workDir = work
	defer os.RemoveAll(work)
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	rep := &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
	if o.trace {
		rep.tr = newTracer()
	}
	err = run(ctx, o, rep)
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = rep.tr.writeFile(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		printSummary(rep.tr)
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}

	defs, vals := endToEnd, rep.e2e
	if o.trace {
		defs, vals = perLayer, rep.layer
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !o.trace {
			rep.failf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.failf("metric %s is %v", d.name, v)
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, c := range rep.checks {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", c)
	}
	correct := len(rep.checks) == 0
	out, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct || rep.failed > 0 {
		return 1
	}
	return 0
}

// printSummary writes the per-span-name totals and self times to
// standard error.
func printSummary(tr *tracer) {
	sum := tr.summary()
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-36s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		s := sum[n]
		fmt.Fprintf(os.Stderr, "%-36s %8d %12.3f %12.3f\n", n, s.Count, s.TotalMs, s.SelfMs)
	}
}

// rounds returns how many whole rounds fit the measurement budget, given
// the round time on the reference host (README): the count depends only
// on --seconds, so every run of a given length does the same work.
func rounds(seconds int, refRound time.Duration, minRounds int) int {
	n := int(math.Round(float64(seconds) * float64(time.Second) / float64(refRound)))
	return max(n, minRounds)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
