// Command e2ebench is eventmatch's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output against a reference
// computed in the same run, and prints its metrics; the last line of
// standard output is one JSON object. See README.md for the workloads and
// metrics, and run.sh for how to build and run it.
//
//	e2ebench -daemon BIN -workdir DIR --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// e2eUnits and layerUnits name every metric the benchmark reports, with its
// unit. The end-to-end metrics come from untraced runs, the per-layer ones
// from traced runs.
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"op_s_p50":    "s",
	"op_s_tail":   "s",
	"ops_per_s":   "1/s",
	"peak_mem_mb": "MB",
	"f_measure":   "ratio",
	"ok_ratio":    "ratio",
}

var layerUnits = map[string]string{
	"logio.read_s":                  "s",
	"logio.mb_per_s":                "MB/s",
	"depgraph.build_s":              "s",
	"pattern.index_build_s":         "s",
	"match.build_problem_s":         "s",
	"pattern.scans":                 "count",
	"pattern.traces_scanned":        "count",
	"pattern.scan_s":                "s",
	"pattern.cache_hit_ratio":       "ratio",
	"pattern.cache_lookups":         "count",
	"pattern.index_skips":           "count",
	"match.search_s":                "s",
	"match.expanded":                "count",
	"match.generated":               "count",
	"match.bound_evals":             "count",
	"match.frontier_peak":           "count",
	"match.generated_per_s":         "1/s",
	"eventmatch.allocs_per_match":   "count",
	"eventmatch.alloc_mb_per_match": "MB",
	"server.submit_s":               "s",
	"server.queue_wait_s":           "s",
	"server.run_s":                  "s",
	"server.poll_s":                 "s",
	"server.logcache_hit_ratio":     "ratio",
	"server.logcache_lookups":       "count",
	"server.problemcache_hit_ratio": "ratio",
	"server.problemcache_lookups":   "count",
	"server.rejected":               "count",
	"store.fsyncs_per_job":          "count",
	"store.fsync_s":                 "s",
	"store.journal_appends":         "count",
	"stream.append_ack_s":           "s",
	"stream.append_s_p50":           "s",
	"stream.append_s_tail":          "s",
	"stream.revisions_per_append":   "ratio",
	"stream.appends":                "count",
	"stream.rejected":               "count",
	"loadgen.sent":                  "count",
	"loadgen.late_s_max":            "s",
	"loadgen.self_late_s_max":       "s",
	"trace.overhead_s":              "s",
	"trace.coverage_min":            "ratio",
}

// report is what one run found.
type report struct {
	attempted, failed int
	wrong             []string // output checks that failed
	metrics           map[string]float64
	notes             []string // extra human-readable lines
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// wrongf records a failed output check.
func (r *report) wrongf(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runConfig is one invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Trace    bool
	Daemon   string
	WorkDir  string // scratch for this run, removed at exit
	SpanPath string // where a traced run writes its spans
}

var workloads = map[string]func(runConfig) (*report, error){
	"batch-ha30":    func(c runConfig) (*report, error) { return runBatch(c, algHA) },
	"batch-exact30": func(c runConfig) (*report, error) { return runBatch(c, algExact) },
	"serve-mixed":   runServe,
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	var c runConfig
	var seconds, trace int
	flag.StringVar(&c.Workload, "workload", "", "batch-ha30, batch-exact30 or serve-mixed")
	flag.Int64Var(&c.Seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.Daemon, "daemon", "", "path of the eventmatchd binary (serve-mixed)")
	flag.StringVar(&c.WorkDir, "workdir", "", "scratch directory for inputs, daemon state and the span file")
	flag.Parse()
	c.Seconds, c.Trace = time.Duration(seconds)*time.Second, trace == 1
	wl, ok := workloads[c.Workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", c.Workload)
		return 2
	case seconds < 1 || (trace != 0 && trace != 1) || c.WorkDir == "":
		fmt.Fprintln(os.Stderr, "e2ebench: need --seconds >= 1, --trace 0|1 and -workdir")
		return 2
	}
	c.SpanPath = filepath.Join(c.WorkDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.Workload, c.Seed))
	c.WorkDir = filepath.Join(c.WorkDir, fmt.Sprintf("%s-%d-%d", c.Workload, c.Seed, os.Getpid()))
	if err := os.MkdirAll(c.WorkDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(c.WorkDir)
	fmt.Printf("env go=%s nproc=%d gomaxprocs=%d workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), c.Workload, c.Seed, seconds, trace)

	rep, err := wl(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	if rss, err := peakRSSMB(os.Getpid()); err == nil {
		fmt.Printf("benchmark process: peak RSS %.1f MB\n", rss)
	}
	fmt.Printf("fail_ratio: %d failed of %d attempted\n", rep.failed, rep.attempted)
	for _, w := range rep.wrong {
		fmt.Println("CHECK FAILED:", w)
	}
	units := e2eUnits
	if c.Trace {
		units = layerUnits
	}
	out := map[string]any{}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, ok := rep.metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: metric %s was not measured\n", n)
			return 1
		}
		fmt.Printf("metric %-30s %16.6f %s\n", n, v, units[n])
		out[n] = map[string]any{"value": v, "unit": units[n]}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.wrong) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(rep.wrong) > 0 || rep.attempted < 1 {
		return 1
	}
	return 0
}
