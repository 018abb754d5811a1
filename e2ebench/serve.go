package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventmatch"
	"eventmatch/internal/server"
	"eventmatch/internal/server/client"
	"eventmatch/internal/telemetry"
)

const (
	// openRate is the open-loop submission rate of phase (a), in jobs per
	// second: about a third of what phase (c) completes on a 2-CPU machine.
	// At half, queueing turned every slowdown of the host into a far larger
	// one in the job latency tail, and the tail's run-to-run spread reached
	// 0.39.
	openRate = 8.0
	// openShare is the share of the run that phases (a) and (b) take; phase
	// (c) takes the rest.
	openShare = 0.65
	// warmup is the start of phase (a) whose jobs are checked but left out
	// of the latency figures: a freshly booted daemon runs its first jobs
	// several times slower while its heap and caches grow. The session
	// starts when the warm-up ends.
	warmup = 2 * time.Second
	// chunkTraces is the size of one session append; the session's target
	// (realTraces traces) arrives in realTraces/chunkTraces appends spread
	// over appendSpan of what remains of phase (a) after the warm-up.
	chunkTraces = 125
	appendSpan  = 0.7
	// minAppendEvery keeps short runs from sending appends faster than the
	// session can re-search, which the daemon would refuse; phase (a) then
	// runs until the last append is sent.
	minAppendEvery = 400 * time.Millisecond
	pollEvery      = 5 * time.Millisecond
	// capacityPerCPUSecond sizes the pool of distinct pairs phase (c) draws
	// from, per CPU and second of the phase; a run that exhausts it is
	// invalid.
	capacityPerCPUSecond = 20
	// tracedLibraryInputs is how many of the verified (pair, algorithm)
	// jobs a traced run also runs layer by layer, for the library metrics.
	tracedLibraryInputs = 12
)

var algNames = [2]string{"heuristic-advanced", "exact"}

// jobRec is one daemon job as the load generator saw it.
type jobRec struct {
	pair     *pairInput
	alg      string
	due      time.Time
	id       string
	submitS  float64
	nextPoll time.Time
	status   server.JobStatus
	res      server.JobResult
	err      error // why the job has no result
	done     bool  // terminal, result fetched if there is one
	ok       bool  // a result was fetched
	latS     float64
	root     int
}

// appendRec is one session append.
type appendRec struct {
	traces   []string
	due      time.Time
	ackS     float64
	accepted int // session total after this append; 0 if refused
}

// updRec is one watch update with its arrival time.
type updRec struct {
	at time.Time
	up server.SessionUpdate
}

// serveRun holds one serve-mixed run.
type serveRun struct {
	c       runConfig
	rep     *report
	tr      *tracer
	cl      *client.Client
	open    []*jobRec
	capJobs []*jobRec
	appends []*appendRec
	updates []updRec
	late    lateness
	polls   []float64
	session *pairInput
	final   *server.SessionUpdate
}

// runServe drives the real eventmatchd binary: an open loop of job
// submissions (a) alongside one streaming session (b), then a closed-loop
// capacity phase (c) with one client per CPU.
func runServe(c runConfig) (*report, error) {
	if c.Daemon == "" {
		return nil, errors.New("serve-mixed needs -daemon")
	}
	s := &serveRun{c: c, rep: newReport()}
	if c.Trace {
		s.tr = newTracer()
	}
	openDur := time.Duration(float64(c.Seconds) * openShare)
	capDur := c.Seconds - openDur
	nOpen := int(openRate * openDur.Seconds())

	var (
		d      *daemon
		pairs  []*pairInput
		setups []float64
	)
	for i := 0; i < serveSetupReps; i++ {
		pairs = nil // let the previous set-up's pairs go before making more
		runtime.GC()
		t0 := time.Now()
		ps, err := servePairs(c.Seed, nOpen, int(capacityPerCPUSecond*float64(runtime.NumCPU())*capDur.Seconds()))
		if err != nil {
			return nil, err
		}
		dd, err := startDaemon(c.Daemon, filepath.Join(c.WorkDir, fmt.Sprintf("daemon%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serveSetupReps-1 {
			if err := dd.stop(); err != nil {
				return nil, err
			}
		}
		d, pairs = dd, ps
	}
	s.rep.metrics["setup_s"] = median(setups)
	defer d.stop()

	// At most one connection per CPU, the watch stream included.
	tp := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	defer tp.CloseIdleConnections()
	s.cl = client.New(d.base, &http.Client{Transport: tp})
	ctx, cancel := context.WithTimeout(context.Background(), c.Seconds+90*time.Second)
	defer cancel()

	s.session = pairs[0]
	fresh := pairs[1:]
	s.open = openJobs(fresh, nOpen)
	capPool := fresh[distinctOpen(nOpen):]

	m0, err := s.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	steal := startSteal()
	if err := s.phaseAB(ctx, openDur); err != nil {
		return nil, err
	}
	m1, err := s.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	jobsPerS, err := s.phaseC(ctx, capPool, capDur)
	if err != nil {
		return nil, err
	}
	m2, err := s.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	steal.note(s.rep)
	tp.CloseIdleConnections()
	if err := d.stop(); err != nil {
		return nil, err
	}
	if s.late.fellBehind() {
		return nil, fmt.Errorf("run invalid: the load generator fell %.3fs behind its schedule with no request in flight (limit %s)",
			s.late.selfMax.Seconds(), maxSelfLate)
	}

	tv := time.Now()
	refs, err := s.verify()
	if err != nil {
		return nil, err
	}
	s.rep.notef("untimed verification of %d references took %.1fs", len(refs), time.Since(tv).Seconds())
	s.report(refs, jobsPerS, rss, m0, m1, m2)
	if c.Trace {
		if err := s.tracedLibrary(refs); err != nil {
			return nil, err
		}
		return s.rep, finishTrace(c, s.rep, s.tr)
	}
	return s.rep, nil
}

// servePairs generates the session pair, the open loop's distinct pairs and
// the capacity pool, all distinct real-like pairs, one goroutine per CPU.
func servePairs(seed int64, nOpen, nCap int) ([]*pairInput, error) {
	out := make([]*pairInput, 1+distinctOpen(nOpen)+nCap)
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(out) && errs[w] == nil; i += len(errs) {
				out[i], errs[w] = realPair(seed, i)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// distinctOpen is how many fresh pairs nOpen open-loop jobs use: one job in
// four resubmits an earlier job.
func distinctOpen(nOpen int) int { return nOpen - nOpen/4 }

// openJobs lays out the open loop: algorithms alternate, and every fourth job
// resubmits the job two before it (same pair, same algorithm), so the
// daemon's log and problem caches see both misses and hits.
func openJobs(fresh []*pairInput, nOpen int) []*jobRec {
	jobs := make([]*jobRec, nOpen)
	next := 0
	for i := range jobs {
		j := &jobRec{alg: algNames[i%2]}
		if i%4 == 3 {
			j.pair = jobs[i-2].pair
		} else {
			j.pair = fresh[next]
			next++
		}
		jobs[i] = j
	}
	return jobs
}

// phaseAB runs the open loop and the session from one issuing goroutine; a
// second goroutine follows the session's watch stream.
func (s *serveRun) phaseAB(ctx context.Context, dur time.Duration) error {
	sp := s.tr.start("stream.open", 0, "session")
	st, err := s.cl.OpenSession(ctx, server.OpenSessionRequest{
		Log1:     server.LogPayload{Format: "log", Data: string(s.session.L1)},
		Patterns: s.session.Patterns,
	})
	s.tr.end(sp)
	if err != nil {
		return fmt.Errorf("opening the session: %w", err)
	}
	// The watch goroutine alone writes s.updates and wErr until wg is done.
	var (
		wg   sync.WaitGroup
		wErr error
	)
	wctx, wStop := context.WithCancel(ctx)
	defer wStop()
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := s.cl.WatchSession(wctx, st.ID, func(u server.SessionUpdate) bool {
			s.updates = append(s.updates, updRec{at: time.Now(), up: u})
			return !u.Final
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			wErr = err
		}
	}()

	t0 := time.Now().Add(20 * time.Millisecond)
	for i, j := range s.open {
		j.due = t0.Add(time.Duration(float64(i) / openRate * float64(time.Second)))
	}
	lines := strings.Split(strings.TrimRight(string(s.session.L2), "\n"), "\n")
	nChunks := (len(lines) + chunkTraces - 1) / chunkTraces
	every := max(time.Duration(float64(dur-warmup)*appendSpan/float64(nChunks)), minAppendEvery)
	for k := 0; k < nChunks; k++ {
		s.appends = append(s.appends, &appendRec{
			traces: lines[k*chunkTraces : min((k+1)*chunkTraces, len(lines))],
			due:    t0.Add(warmup + time.Duration(k)*every),
		})
	}
	if err := s.sendLoop(ctx, st.ID); err != nil {
		return err
	}

	if _, err := s.cl.WaitSessionCaughtUp(ctx, st.ID, pollEvery); err != nil {
		return fmt.Errorf("waiting for the session to catch up: %w", err)
	}
	sp = s.tr.start("stream.close", 0, "session")
	fin, err := s.cl.CloseSession(ctx, st.ID)
	if err == nil && !fin.State.Terminal() {
		fin, err = s.cl.WaitSessionTerminal(ctx, st.ID, pollEvery)
	}
	s.tr.end(sp)
	if err != nil {
		return fmt.Errorf("closing the session: %w", err)
	}
	s.final = fin.Update
	waitOrCancel(&wg, wStop, 10*time.Second)
	return wErr
}

// waitOrCancel waits for wg, canceling after limit so that a watch stream
// that never ends cannot hang the run.
func waitOrCancel(wg *sync.WaitGroup, cancel context.CancelFunc, limit time.Duration) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(limit):
		cancel()
		<-done
	}
}

// sendLoop is the open loop's single issuing goroutine: it sends each
// submission and append when due and polls outstanding jobs in between.
func (s *serveRun) sendLoop(ctx context.Context, sessionID string) error {
	nextJob, nextApp := 0, 0
	var outstanding []*jobRec
	for {
		now := time.Now()
		var due time.Time
		isJob := false
		if nextJob < len(s.open) {
			due, isJob = s.open[nextJob].due, true
		}
		if nextApp < len(s.appends) && (!isJob || s.appends[nextApp].due.Before(due)) {
			due, isJob = s.appends[nextApp].due, false
		}
		switch {
		case !due.IsZero() && !now.Before(due):
			s.late.sent(due, now)
			if isJob {
				j := s.open[nextJob]
				nextJob++
				if s.submit(ctx, j) {
					outstanding = append(outstanding, j)
				}
			} else {
				s.appendChunk(ctx, sessionID, nextApp)
				nextApp++
			}
			s.late.returned(time.Now())
			continue
		}
		// Nothing due: poll the job that has waited longest for a poll.
		var pick *jobRec
		for _, j := range outstanding {
			if pick == nil || j.nextPoll.Before(pick.nextPoll) {
				pick = j
			}
		}
		if pick != nil && !now.Before(pick.nextPoll) {
			if err := s.poll(ctx, pick); err != nil {
				return err
			}
			s.late.returned(time.Now())
			if pick.done {
				outstanding = slices.DeleteFunc(outstanding, func(j *jobRec) bool { return j == pick })
			}
			continue
		}
		if due.IsZero() && len(outstanding) == 0 {
			return nil
		}
		wake := due
		if pick != nil && (wake.IsZero() || pick.nextPoll.Before(wake)) {
			wake = pick.nextPoll
		}
		if err := sleepUntil(ctx, wake); err != nil {
			return err
		}
	}
}

func sleepUntil(ctx context.Context, t time.Time) error {
	tm := time.NewTimer(time.Until(t))
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-tm.C:
		return nil
	}
}

// submit uploads one open-loop job; it reports whether the daemon admitted
// it.
func (s *serveRun) submit(ctx context.Context, j *jobRec) bool {
	j.root = s.tr.startAt("job", 0, "", j.due)
	sp := s.tr.start("server.submit", j.root, "")
	t0 := time.Now()
	err := s.upload(ctx, j)
	j.submitS = time.Since(t0).Seconds()
	s.tr.end(sp)
	if err != nil {
		s.tr.end(j.root)
		return false
	}
	j.nextPoll = time.Now().Add(pollEvery)
	return true
}

// upload submits a job's pair; a refused or failed submission leaves the
// job done without a result.
func (s *serveRun) upload(ctx context.Context, j *jobRec) error {
	st, err := s.cl.SubmitUpload(ctx,
		client.Upload{Name: "l1.log", Data: j.pair.L1}, client.Upload{Name: "l2.log", Data: j.pair.L2},
		[]byte(strings.Join(j.pair.Patterns, "\n")), truthText(j.pair.Truth),
		server.SubmitRequest{Algorithm: j.alg})
	if err != nil {
		j.done, j.err = true, fmt.Errorf("submit: %w", err)
		return j.err
	}
	j.id, j.status = st.ID, st
	return nil
}

// poll fetches an open-loop job's status and, once it is done, its result.
func (s *serveRun) poll(ctx context.Context, j *jobRec) error {
	sp := s.tr.start("server.poll", j.root, j.id)
	t0 := time.Now()
	st, err := s.cl.Status(ctx, j.id)
	s.polls = append(s.polls, time.Since(t0).Seconds())
	s.tr.end(sp)
	if err != nil {
		return fmt.Errorf("polling %s: %w", j.id, err)
	}
	j.nextPoll = time.Now().Add(pollEvery)
	if !st.State.Terminal() {
		return nil
	}
	sp = s.tr.start("server.result", j.root, j.id)
	err = s.settle(ctx, j, st)
	s.tr.end(sp)
	s.tr.end(j.root)
	return err
}

// settle records a job's terminal status and fetches its result if it has
// one. The job's latency ends when the result is in hand.
func (s *serveRun) settle(ctx context.Context, j *jobRec, st server.JobStatus) error {
	j.status, j.done = st, true
	if st.State != server.StateDone {
		j.err = fmt.Errorf("job %s ended %s: %s", j.id, st.State, st.Error)
		return nil
	}
	res, err := s.cl.Result(ctx, j.id)
	if err != nil {
		return fmt.Errorf("fetching result %s: %w", j.id, err)
	}
	j.res, j.ok = res, true
	j.latS = time.Since(j.due).Seconds()
	return nil
}

// appendChunk sends the k-th chunk of the session's target.
func (s *serveRun) appendChunk(ctx context.Context, id string, k int) {
	a := s.appends[k]
	root := s.tr.startAt("append", 0, id, a.due)
	sp := s.tr.start("stream.append", root, id)
	t0 := time.Now()
	resp, err := s.cl.AppendSession(ctx, id, a.traces)
	a.ackS = time.Since(t0).Seconds()
	s.tr.end(sp)
	s.tr.end(root)
	if err != nil {
		s.rep.notef("append %d failed: %v", k, err)
		return
	}
	a.accepted = resp.Accepted
}

// phaseC is the capacity phase: one closed-loop client per CPU submits
// distinct pairs back to back. It returns jobs completed per second.
func (s *serveRun) phaseC(ctx context.Context, pool []*pairInput, dur time.Duration) (float64, error) {
	var (
		next      atomic.Int64
		exhausted atomic.Bool
		mu        sync.Mutex
		firstErr  error
		finished  []time.Time
		wg        sync.WaitGroup
	)
	// Each client owns the jobs it runs; mu guards what they share.
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(pool) {
					exhausted.Store(true)
					return
				}
				j := &jobRec{pair: pool[i], alg: algNames[i%2], due: time.Now()}
				err := s.closedLoopJob(ctx, j)
				end := time.Now()
				mu.Lock()
				s.capJobs = append(s.capJobs, j)
				if j.ok && end.Before(deadline) {
					finished = append(finished, end)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, fmt.Errorf("capacity phase: %w", firstErr)
	}
	if exhausted.Load() {
		return 0, fmt.Errorf("run invalid: the capacity phase used all %d prepared pairs; raise capacityPerCPUSecond", len(pool))
	}
	// Jobs completed before the deadline, over the time to the last of them.
	var last time.Time
	for _, t := range finished {
		if t.After(last) {
			last = t
		}
	}
	if len(finished) == 0 {
		return 0, errors.New("the capacity phase completed no job")
	}
	return float64(len(finished)) / last.Sub(start).Seconds(), nil
}

// closedLoopJob submits one job and waits for its result. Only a failure to
// talk to the daemon is an error; a refused or failed job is recorded on j.
func (s *serveRun) closedLoopJob(ctx context.Context, j *jobRec) error {
	if s.upload(ctx, j) != nil {
		return nil
	}
	st := j.status
	for !st.State.Terminal() {
		if err := sleepUntil(ctx, time.Now().Add(pollEvery)); err != nil {
			return err
		}
		var err error
		if st, err = s.cl.Status(ctx, j.id); err != nil {
			return err
		}
	}
	return s.settle(ctx, j, st)
}

// verify computes the references for every pair the daemon matched, and for
// the session's final target, and checks every result against them. It
// also counts every operation: each job, each append and the session close.
func (s *serveRun) verify() (map[refJob]reference, error) {
	seen := map[refJob]bool{}
	var jobs []refJob
	add := func(j refJob) {
		if !seen[j] {
			seen[j] = true
			jobs = append(jobs, j)
		}
	}
	all := s.allJobs()
	for _, j := range all {
		if j.ok {
			add(refJob{j.pair, parseAlg(j.alg)})
		}
	}
	sess := s.sessionTarget()
	add(refJob{sess, algExact})
	refs, err := references(jobs)
	if err != nil {
		return nil, err
	}
	for _, j := range all {
		s.rep.attempted++
		if !j.ok {
			s.rep.failed++
			s.rep.notef("job failed: %v", j.err)
			continue
		}
		err := refs[refJob{j.pair, parseAlg(j.alg)}].check(observed{Pairs: j.res.Pairs, Score: j.res.Score, Truncated: j.res.Truncated})
		switch {
		case errors.Is(err, errTruncated):
			s.rep.failed++
			j.ok = false
		case err != nil:
			s.rep.wrongf("job %s (%s, %s): %v", j.id, j.pair.Name, j.alg, err)
			j.ok = false
		}
	}
	for _, a := range s.appends {
		s.rep.attempted++
		if a.accepted == 0 {
			s.rep.failed++
		}
	}
	s.rep.attempted++
	switch {
	case s.final == nil || !s.final.Final:
		s.rep.failed++
		s.rep.notef("the session closed without a final update")
	default:
		err := refs[refJob{sess, algExact}].check(observed{Pairs: s.final.Pairs, Score: s.final.Score, Truncated: s.final.Truncated})
		switch {
		case errors.Is(err, errTruncated):
			s.rep.failed++
		case err != nil:
			s.rep.wrongf("session final mapping vs a batch match over the full target: %v", err)
		}
	}
	return refs, nil
}

func (s *serveRun) allJobs() []*jobRec { return slices.Concat(s.open, s.capJobs) }

// sessionTarget is the session's source with the target traces the daemon
// admitted, as one batch input.
func (s *serveRun) sessionTarget() *pairInput {
	var b bytes.Buffer
	for _, a := range s.appends {
		if a.accepted > 0 {
			for _, t := range a.traces {
				b.WriteString(t)
				b.WriteByte('\n')
			}
		}
	}
	p := *s.session
	p.Name += "-session"
	p.L2 = b.Bytes()
	return &p
}

func parseAlg(name string) eventmatch.Algorithm {
	if name == algNames[1] {
		return algExact
	}
	return algHA
}

// report derives the run's metrics from what the load generator recorded
// and from the daemon's telemetry before phase (a) (m0), between phases (b)
// and (c) (m1) and after phase (c) (m2).
func (s *serveRun) report(refs map[refJob]reference, jobsPerS, rss float64, m0, m1, m2 telemetry.Snapshot) {
	m := s.rep.metrics
	var lat, fs, submits, waits, runs []float64
	for _, j := range s.open {
		if j.due.Sub(s.open[0].due) < warmup {
			continue
		}
		submits = append(submits, j.submitS)
		if j.ok {
			lat = append(lat, j.latS)
		}
	}
	for _, j := range s.allJobs() {
		if !j.ok {
			continue
		}
		fs = append(fs, refs[refJob{j.pair, parseAlg(j.alg)}].FMeasure)
		created, e1 := time.Parse(time.RFC3339Nano, j.status.Created)
		started, e2 := time.Parse(time.RFC3339Nano, j.status.Started)
		finished, e3 := time.Parse(time.RFC3339Nano, j.status.Finished)
		if e1 == nil && e2 == nil && e3 == nil {
			waits = append(waits, started.Sub(created).Seconds())
			runs = append(runs, finished.Sub(started).Seconds())
		}
	}
	sum := summarize(lat)
	m["op_s_p50"], m["op_s_tail"] = sum.P50, sum.Tail
	m["ops_per_s"] = jobsPerS
	m["peak_mem_mb"] = rss
	m["f_measure"] = mean(fs)
	m["ok_ratio"] = 1 - ratio(float64(s.rep.failed), float64(s.rep.attempted))
	noteTail(s.rep, "job_s (op_s)", sum)
	s.rep.notef("jobs_per_s (ops_per_s): %.3f over the capacity phase; daemon_rss_mb (peak_mem_mb): %.1f at the end of phase (b)", jobsPerS, rss)

	var appLat, acks []float64
	admitted, own := 0, 0
	for _, a := range s.appends {
		acks = append(acks, a.ackS)
		if a.accepted == 0 {
			continue
		}
		admitted++
		seen := false
		for _, u := range s.updates {
			if !seen && u.up.Revision >= a.accepted {
				appLat = append(appLat, u.at.Sub(a.due).Seconds())
				seen = true
			}
			if u.up.Revision == a.accepted {
				own++
				break
			}
		}
	}
	as := summarize(appLat)
	noteTail(s.rep, "append_s (stream.append_s_*)", as)
	m["stream.append_s_p50"], m["stream.append_s_tail"] = as.P50, as.Tail
	m["stream.append_ack_s"] = median(acks)
	m["stream.appends"] = float64(len(s.appends))
	m["stream.revisions_per_append"] = ratio(float64(own), float64(admitted))
	m["stream.rejected"] = delta(m0, m2, "server.session_rejected")

	m["server.submit_s"] = median(submits)
	m["server.queue_wait_s"] = median(waits)
	m["server.run_s"] = median(runs)
	m["server.poll_s"] = median(s.polls)
	hits, misses := delta(m0, m2, "server.logcache_hits"), delta(m0, m2, "server.logcache_misses")
	m["server.logcache_lookups"] = hits + misses
	m["server.logcache_hit_ratio"] = ratio(hits, hits+misses)
	hits, misses = delta(m0, m2, "server.problemcache_hits"), delta(m0, m2, "server.problemcache_misses")
	m["server.problemcache_lookups"] = hits + misses
	m["server.problemcache_hit_ratio"] = ratio(hits, hits+misses)
	m["server.rejected"] = delta(m0, m2, "server.jobs_rejected") + delta(m0, m2, "server.jobs_rate_limited")

	m["store.fsyncs_per_job"] = ratio(delta(m1, m2, "store.journal_fsyncs"), delta(m1, m2, "server.jobs_completed"))
	n0, t0 := m0.Timer("store.journal_fsync")
	n2, t2 := m2.Timer("store.journal_fsync")
	m["store.fsync_s"] = ratio((t2 - t0).Seconds(), float64(n2-n0))
	m["store.journal_appends"] = delta(m0, m2, "store.journal_appends")

	s.rep.notef("server: submit p50 %.4fs, queue wait p50 %.4fs, run p50 %.4fs, fsync mean %.5fs",
		m["server.submit_s"], m["server.queue_wait_s"], m["server.run_s"], m["store.fsync_s"])
	m["loadgen.sent"] = float64(s.late.n)
	m["loadgen.late_s_max"] = s.late.max.Seconds()
	m["loadgen.self_late_s_max"] = s.late.selfMax.Seconds()
}

func delta(a, b telemetry.Snapshot, name string) float64 {
	return float64(b.Counter(name) - a.Counter(name))
}

// tracedLibrary runs a sample of the verified (pair, algorithm) jobs through
// the library at Workers=1, untraced through the facade and traced layer by
// layer: the per-upload ingest, scoring and search costs of this workload.
func (s *serveRun) tracedLibrary(refs map[refJob]reference) error {
	var keys []refJob
	seen := map[refJob]bool{}
	for _, j := range s.open {
		k := refJob{j.pair, parseAlg(j.alg)}
		if j.ok && !seen[k] && len(keys) < tracedLibraryInputs {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	var ls libSamples
	for i, k := range keys {
		in := *k.in
		in.L1Path = filepath.Join(s.c.WorkDir, fmt.Sprintf("lib%d-l1.log", i))
		in.L2Path = filepath.Join(s.c.WorkDir, fmt.Sprintf("lib%d-l2.log", i))
		if err := os.WriteFile(in.L1Path, in.L1, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(in.L2Path, in.L2, 0o644); err != nil {
			return err
		}
		ls.facade(s.rep, refs[k], &in, k.alg, 1)
		ls.traced(s.rep, s.tr, fmt.Sprintf("lib%d", i), refs[k], &in, k.alg, 1)
	}
	ls.report(s.rep, s.tr.snapshot())
	return nil
}
