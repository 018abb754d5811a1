package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"eventmatch"
	"eventmatch/internal/depgraph"
	"eventmatch/internal/event"
	"eventmatch/internal/logio"
	"eventmatch/internal/match"
	"eventmatch/internal/pattern"
	"eventmatch/internal/telemetry"
)

// matchOut is one match's outcome as the checks and metrics need it.
type matchOut struct {
	Pairs     map[string]string
	Score     float64
	Truncated bool
	Tele      *telemetry.Snapshot
	ReadBytes int64
}

func (m matchOut) observed() observed {
	return observed{Pairs: m.Pairs, Score: m.Score, Truncated: m.Truncated}
}

// facadeMatch is one full match through the public API: read both log
// files, then eventmatch.Match.
func facadeMatch(in *pairInput, alg eventmatch.Algorithm, workers int) (matchOut, error) {
	l1, err := eventmatch.ReadLogFile(in.L1Path)
	if err != nil {
		return matchOut{}, err
	}
	l2, err := eventmatch.ReadLogFile(in.L2Path)
	if err != nil {
		return matchOut{}, err
	}
	res, err := eventmatch.Match(l1, l2, eventmatch.Config{Algorithm: alg, Patterns: in.Patterns, Workers: workers})
	if err != nil {
		return matchOut{}, err
	}
	return matchOut{Pairs: res.Pairs, Score: res.Score, Truncated: res.Stats.Truncated}, nil
}

// sink keeps the results of the standalone layer calls alive.
var sink []any

// tracedMatch is the same match as facadeMatch, made of the layer calls the
// facade makes, each wrapped in a span under one root span "match". It also
// builds the dependency graphs and trace indexes standalone, which
// BuildProblem repeats inside, so the problem build's own time can be
// derived. The search runs with a telemetry registry, which supplies the
// scan, cache and A* counters.
func tracedMatch(tr *tracer, req string, in *pairInput, alg eventmatch.Algorithm, workers int) (matchOut, error) {
	var out matchOut
	root := tr.start("match", 0, req)
	defer tr.end(root)
	read := func(path string) (*event.Log, error) {
		sp := tr.start("logio.read", root, req)
		defer tr.end(sp)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if st, err := f.Stat(); err == nil {
			out.ReadBytes += st.Size()
		}
		return logio.Read(f, logio.DetectFormat(path))
	}
	l1, err := read(in.L1Path)
	if err != nil {
		return out, err
	}
	l2, err := read(in.L2Path)
	if err != nil {
		return out, err
	}
	sp := tr.start("eventmatch.bind_patterns", root, req)
	bound, err := eventmatch.BindPatterns(in.Patterns, l1.Alphabet)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	for _, l := range []*event.Log{l1, l2} {
		sp = tr.start("depgraph.build", root, req)
		g := depgraph.Build(l)
		tr.end(sp)
		sp = tr.start("pattern.index_build", root, req)
		ix := pattern.NewTraceIndex(l)
		tr.end(sp)
		sink = append(sink[:0], g, ix)
	}
	sp = tr.start("match.build_problem", root, req)
	pr, err := match.BuildProblem(l1, l2, bound, match.ModePattern)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	opts := match.Options{Bound: match.BoundSimple, Workers: resolveWorkers(workers), Telemetry: telemetry.NewRegistry()}
	var (
		m  match.Mapping
		st match.Stats
	)
	sp = tr.start("match.search", root, req)
	switch alg {
	case eventmatch.AlgoExact:
		opts.Bound = match.BoundSharp
		m, st, err = pr.AStarContext(context.Background(), opts)
	case eventmatch.AlgoHeuristicAdvanced:
		m, st, err = pr.HeuristicAdvancedContext(context.Background(), opts)
	default:
		err = fmt.Errorf("algorithm %s is not benchmarked", alg)
	}
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.Pairs = make(map[string]string)
	for v1, v2 := range m {
		if v2 != event.None {
			out.Pairs[l1.Alphabet.Name(event.ID(v1))] = l2.Alphabet.Name(v2)
		}
	}
	out.Score, out.Truncated, out.Tele = st.Score, st.Truncated, st.Telemetry
	return out, nil
}

// resolveWorkers follows eventmatch.Config.Workers: negative means one per
// CPU.
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}
