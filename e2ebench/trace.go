package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one request (a match, a job, a session) share Req; Parent
// is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced paths pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span now and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	return t.startAt(name, parent, req, time.Now())
}

// startAt opens a span that began at at — an open-loop request starts when
// it was due, not when it was sent.
func (t *tracer) startAt(name string, parent int, req string, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(at.Sub(t.epoch))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the finished spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the intervals [s.Start, s.End)
// clipped to [lo, hi).
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func childrenOf(spans []span) map[int][]span {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name  string
	Calls int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) []layerRow {
	kids := childrenOf(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Calls++
		r.Total += s.dur()
		r.Self += s.dur() - time.Duration(covered(kids[s.ID], s.Start, s.End))
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-28s %7s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "%-28s %7d %12.6f %12.6f\n", r.Name, r.Calls, r.Total.Seconds(), r.Self.Seconds())
	}
}

// rootCoverage returns, for every root span named root, the share of its
// wall time covered by its direct children.
func rootCoverage(spans []span, root string) []float64 {
	kids := childrenOf(spans)
	var out []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root && s.End > s.Start {
			out = append(out, float64(covered(kids[s.ID], s.Start, s.End))/float64(s.End-s.Start))
		}
	}
	return out
}

// perRoot returns, for every root span named root, the summed duration of
// its direct children whose name has the given prefix — one value per
// traced request.
func perRoot(spans []span, root, prefix string) []float64 {
	kids := childrenOf(spans)
	var out []float64
	for _, s := range spans {
		if s.Parent != 0 || s.Name != root {
			continue
		}
		var d time.Duration
		for _, k := range kids[s.ID] {
			if strings.HasPrefix(k.Name, prefix) {
				d += k.dur()
			}
		}
		out = append(out, d.Seconds())
	}
	return out
}

// durations returns the durations, in seconds, of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}
