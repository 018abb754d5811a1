package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventmatch"
	"eventmatch/internal/logio"
)

const (
	algHA    = eventmatch.AlgoHeuristicAdvanced
	algExact = eventmatch.AlgoExact

	// batchSetupReps and serveSetupReps are how often a run sets up;
	// setup_s is the median. A batch set-up takes tens of milliseconds, so
	// it can repeat more often.
	batchSetupReps = 7
	serveSetupReps = 3
	// minCoverage is the share of a traced match's wall time its layer
	// spans must cover.
	minCoverage = 0.95
)

// runBatch is the closed loop with one caller: each match reads both log
// files and calls eventmatch.Match with Workers=-1, cycling over the inputs.
func runBatch(c runConfig, alg eventmatch.Algorithm) (*report, error) {
	rep := newReport()
	var (
		inputs []*pairInput
		setups []float64
	)
	for i := 0; i < batchSetupReps; i++ {
		t0 := time.Now()
		ins, err := synthInputs(c.Seed, c.WorkDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		inputs = ins
	}
	rep.metrics["setup_s"] = median(setups)

	jobs := make([]refJob, len(inputs))
	for i, in := range inputs {
		jobs[i] = refJob{in, alg}
	}
	refs, err := references(jobs)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if c.Trace {
		return rep, tracedBatch(c, rep, inputs, refs, alg)
	}

	steal := startSteal()
	heap := startHeapSampler()
	var lat, fs, peaks []float64
	start := time.Now()
	for i := 0; time.Since(start) < c.Seconds; i++ {
		in := inputs[i%len(inputs)]
		heap.reset()
		t0 := time.Now()
		out, err := facadeMatch(in, alg, -1)
		d := time.Since(t0)
		if checkMatch(rep, refs[refJob{in, alg}], in.Name, out, err) {
			lat = append(lat, d.Seconds())
			fs = append(fs, refs[refJob{in, alg}].FMeasure)
			peaks = append(peaks, heap.peakMB())
		}
	}
	elapsed := time.Since(start)
	heap.stop()
	steal.note(rep)

	s := summarize(lat)
	rep.metrics["op_s_p50"] = s.P50
	rep.metrics["op_s_tail"] = s.Tail
	rep.metrics["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
	rep.metrics["peak_mem_mb"] = median(peaks)
	rep.metrics["f_measure"] = mean(fs)
	rep.metrics["ok_ratio"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	noteTail(rep, "match_s (op_s)", s)
	rep.notef("peak_heap_mb (peak_mem_mb): %.3f, median over %d matches", median(peaks), len(peaks))
	return rep, nil
}

// checkMatch counts one timed match and checks it against its reference.
// It reports whether the match succeeded.
func checkMatch(rep *report, ref reference, name string, out matchOut, err error) bool {
	rep.attempted++
	if err != nil {
		rep.failed++
		rep.notef("%s: match failed: %v", name, err)
		return false
	}
	switch err := ref.check(out.observed()); {
	case err == nil:
		return true
	case errors.Is(err, errTruncated):
		rep.failed++
	default:
		rep.failed++
		rep.wrongf("%s: %v", name, err)
	}
	return false
}

func noteTail(rep *report, what string, s summary) {
	if s.TailOK {
		rep.notef("%s: n=%d p50=%.6f tail=p%.1f %.6f max=%.6f", what, s.N, s.P50, s.TailPc, s.Tail, s.Max)
	} else {
		rep.notef("%s: n=%d p50=%.6f max=%.6f; %d samples support no tail, tail repeats the median", what, s.N, s.P50, s.Max, s.N)
	}
}

// tracedBatch alternates untraced facade matches, which give the allocation
// counts and the untraced latency, with traced layer-by-layer matches.
func tracedBatch(c runConfig, rep *report, inputs []*pairInput, refs map[refJob]reference, alg eventmatch.Algorithm) error {
	tr := newTracer()
	var ls libSamples
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < c.Seconds; i++ {
		in := inputs[(i/2)%len(inputs)]
		if i%2 == 0 {
			ls.facade(rep, refs[refJob{in, alg}], in, alg, -1)
		} else {
			ls.traced(rep, tr, fmt.Sprintf("m%d", i), refs[refJob{in, alg}], in, alg, -1)
		}
	}
	ls.report(rep, tr.snapshot())
	for _, n := range []string{"server.", "store.", "stream.", "loadgen."} {
		zeroLayer(rep, n)
	}
	return finishTrace(c, rep, tr)
}

// libSamples is what a traced run learns from the library: untraced facade
// matches (latency and allocations) and traced layer-by-layer matches.
type libSamples struct {
	plain, allocs, allocMB []float64
	outs                   []matchOut
}

// facade runs one untraced facade match and counts its allocations.
func (ls *libSamples) facade(rep *report, ref reference, in *pairInput, alg eventmatch.Algorithm, workers int) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out, err := facadeMatch(in, alg, workers)
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if checkMatch(rep, ref, in.Name, out, err) {
		ls.plain = append(ls.plain, d.Seconds())
		ls.allocs = append(ls.allocs, float64(m1.Mallocs-m0.Mallocs))
		ls.allocMB = append(ls.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
}

// traced runs one traced layer-by-layer match.
func (ls *libSamples) traced(rep *report, tr *tracer, req string, ref reference, in *pairInput, alg eventmatch.Algorithm, workers int) {
	out, err := tracedMatch(tr, req, in, alg, workers)
	if checkMatch(rep, ref, in.Name, out, err) {
		ls.outs = append(ls.outs, out)
	}
}

// report derives the library's per-layer metrics.
func (ls *libSamples) report(rep *report, spans []span) {
	libraryLayers(rep, spans, ls.outs)
	rep.metrics["eventmatch.allocs_per_match"] = mean(ls.allocs)
	rep.metrics["eventmatch.alloc_mb_per_match"] = mean(ls.allocMB)
	rep.metrics["trace.overhead_s"] = median(durations(spans, "match")) - median(ls.plain)
}

// libraryLayers derives the ingest, scoring and search metrics from the
// spans of traced matches and the telemetry of their searches.
func libraryLayers(rep *report, spans []span, outs []matchOut) {
	m := rep.metrics
	m["logio.read_s"] = median(perRoot(spans, "match", "logio.read"))
	var readBytes int64
	for _, o := range outs {
		readBytes += o.ReadBytes
	}
	m["logio.mb_per_s"] = ratio(float64(readBytes)/1e6, sumOf(durations(spans, "logio.read")))
	m["depgraph.build_s"] = median(perRoot(spans, "match", "depgraph.build"))
	m["pattern.index_build_s"] = median(perRoot(spans, "match", "pattern.index_build"))
	m["match.build_problem_s"] = median(perRoot(spans, "match", "match.build_problem"))
	m["match.search_s"] = median(perRoot(spans, "match", "match.search"))

	per := func(f func(o matchOut) float64) float64 {
		var xs []float64
		for _, o := range outs {
			xs = append(xs, f(o))
		}
		return mean(xs)
	}
	counter := func(name string) float64 {
		return per(func(o matchOut) float64 { return float64(o.Tele.Counter(name)) })
	}
	gauge := func(name string) float64 {
		return per(func(o matchOut) float64 { return float64(o.Tele.Gauge(name)) })
	}
	hits, misses := gauge("cache.hits"), gauge("cache.misses")
	m["pattern.scans"] = counter("engine.scans")
	m["pattern.traces_scanned"] = counter("engine.traces_scanned")
	m["pattern.scan_s"] = per(func(o matchOut) float64 {
		_, total := o.Tele.Timer("engine.scan_time")
		return total.Seconds()
	})
	m["pattern.cache_lookups"] = hits + misses
	m["pattern.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["pattern.index_skips"] = counter("pattern.index_skips")
	m["match.expanded"] = counter("astar.expanded")
	m["match.generated"] = counter("astar.generated")
	m["match.bound_evals"] = counter("astar.bound_evals")
	m["match.frontier_peak"] = gauge("astar.frontier_peak")
	m["match.generated_per_s"] = ratio(m["match.generated"]*float64(len(outs)), sumOf(durations(spans, "match.search")))
}

// zeroLayer reports a layer the workload does not reach as zero.
func zeroLayer(rep *report, prefix string) {
	for n := range layerUnits {
		if strings.HasPrefix(n, prefix) {
			rep.metrics[n] = 0
		}
	}
}

// finishTrace checks span coverage of the traced matches, prints the
// self-time table and writes the span file.
func finishTrace(c runConfig, rep *report, tr *tracer) error {
	spans := tr.snapshot()
	cov := rootCoverage(spans, "match")
	if len(cov) == 0 {
		rep.wrongf("no traced match completed")
	}
	lowest := 1.0
	for _, v := range cov {
		lowest = min(lowest, v)
	}
	rep.metrics["trace.coverage_min"] = lowest
	if lowest < minCoverage {
		rep.wrongf("layer spans cover %.1f%% of a traced match, below %.0f%%", 100*lowest, 100*minCoverage)
	}
	var b strings.Builder
	printSelfTimes(&b, spans)
	rep.notef("%s", strings.TrimRight(b.String(), "\n"))
	if err := tr.writeFile(c.SpanPath); err != nil {
		return err
	}
	rep.notef("spans: %d written to %s", len(spans), c.SpanPath)
	return nil
}

func sumOf(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// refJob names one reference: an input under an algorithm.
type refJob struct {
	in  *pairInput
	alg eventmatch.Algorithm
}

// references computes the references of the jobs, one goroutine per CPU,
// each running the library at Workers=1.
func references(jobs []refJob) (map[refJob]reference, error) {
	out := make(map[refJob]reference, len(jobs))
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	next := make(chan refJob)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				ref, err := referenceOf(j)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				out[j] = ref
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return out, first
}

func referenceOf(j refJob) (reference, error) {
	l1, err := logio.Read(bytes.NewReader(j.in.L1), "log")
	if err != nil {
		return reference{}, err
	}
	l2, err := logio.Read(bytes.NewReader(j.in.L2), "log")
	if err != nil {
		return reference{}, err
	}
	return buildReference(l1, l2, j.in, j.alg)
}

// heapSampler records the peak Go heap in use while it runs.
type heapSampler struct {
	quit, done chan struct{}
	peak       atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// reset starts a new peak from the heap in use now.
func (h *heapSampler) reset() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	h.peak.Store(s[0].Value.Uint64())
}

// peakMB is the peak since the last reset, in MB.
func (h *heapSampler) peakMB() float64 { return float64(h.peak.Load()) / 1e6 }

func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}
