package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"eventmatch"
	"eventmatch/internal/event"
	"eventmatch/internal/match"
)

// scoreTol is the relative tolerance between a reported score and the
// distance a freshly built problem computes for the same mapping.
const scoreTol = 1e-9

// errTruncated marks a result cut short by a budget. It is never compared:
// it counts as a failed operation.
var errTruncated = errors.New("result truncated")

// reference is the verified output for one (input, algorithm): the mapping
// of an untimed run at Workers=1, the distance a freshly built problem gives
// that mapping, and the distance of the ground truth.
type reference struct {
	Pairs      map[string]string
	Score      float64
	TruthScore float64
	Exact      bool
	FMeasure   float64
}

// observed is one result to check: from a timed match, a daemon job or a
// closed session.
type observed struct {
	Pairs     map[string]string
	Score     float64
	Truncated bool
}

// check compares an observed result with the reference. errTruncated means
// the result was not compared; any other error means it is wrong.
func (r reference) check(o observed) error {
	if o.Truncated {
		return errTruncated
	}
	if d := diffPairs(r.Pairs, o.Pairs); d != "" {
		return fmt.Errorf("mapping differs from the reference: %s", d)
	}
	if !near(o.Score, r.Score) {
		return fmt.Errorf("score %.17g differs from the recomputed distance %.17g", o.Score, r.Score)
	}
	if r.Exact && o.Score < r.TruthScore && !near(o.Score, r.TruthScore) {
		return fmt.Errorf("exact score %.17g is below the ground truth's %.17g", o.Score, r.TruthScore)
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= scoreTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// diffPairs describes the first difference between two name-level mappings,
// or returns "" when they are identical.
func diffPairs(want, got map[string]string) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		w, wok := want[k]
		g, gok := got[k]
		if w != g || wok != gok {
			return fmt.Sprintf("%s -> %q, want %q", k, g, w)
		}
	}
	return ""
}

// buildReference runs the library once at Workers=1 on logs read from the
// input and recomputes the score of its mapping, and of the ground truth, on
// a freshly built problem.
func buildReference(l1, l2 *eventmatch.Log, in *pairInput, alg eventmatch.Algorithm) (reference, error) {
	res, err := eventmatch.Match(l1, l2, eventmatch.Config{Algorithm: alg, Patterns: in.Patterns, Workers: 1})
	if err != nil {
		return reference{}, fmt.Errorf("%s/%s: %w", in.Name, alg, err)
	}
	if res.Stats.Truncated {
		return reference{}, fmt.Errorf("%s/%s: reference run truncated (%s)", in.Name, alg, res.Stats.StopReason)
	}
	bound, err := eventmatch.BindPatterns(in.Patterns, l1.Alphabet)
	if err != nil {
		return reference{}, err
	}
	pr, err := match.BuildProblem(l1, l2, bound, match.ModePattern)
	if err != nil {
		return reference{}, err
	}
	truth, err := toMapping(l1, l2, in.Truth)
	if err != nil {
		return reference{}, fmt.Errorf("%s: ground truth: %w", in.Name, err)
	}
	ref := reference{
		Pairs:      res.Pairs,
		Score:      pr.Distance(res.Mapping),
		TruthScore: pr.Distance(truth),
		Exact:      alg == eventmatch.AlgoExact,
		FMeasure:   eventmatch.Evaluate(res.Mapping, truth).FMeasure,
	}
	if !near(res.Score, ref.Score) {
		return reference{}, fmt.Errorf("%s/%s: reference score %.17g differs from its recomputed distance %.17g", in.Name, alg, res.Score, ref.Score)
	}
	if err := ref.check(observed{Pairs: res.Pairs, Score: res.Score}); err != nil {
		return reference{}, fmt.Errorf("%s/%s: reference: %w", in.Name, alg, err)
	}
	return ref, nil
}

// toMapping converts a name-level mapping into an ID mapping over the two
// logs' alphabets.
func toMapping(l1, l2 *eventmatch.Log, pairs map[string]string) (eventmatch.Mapping, error) {
	m := match.NewMapping(l1.NumEvents())
	for n1, n2 := range pairs {
		v1, v2 := l1.Alphabet.Lookup(n1), l2.Alphabet.Lookup(n2)
		if v1 == event.None || v2 == event.None {
			return nil, fmt.Errorf("unknown event in pair %s -> %s", n1, n2)
		}
		m[v1] = v2
	}
	return m, nil
}
