package main

import (
	"errors"
	"testing"
)

func testRef() reference {
	return reference{
		Pairs:      map[string]string{"A": "x", "B": "y", "C": "z"},
		Score:      12.5,
		TruthScore: 12.0,
		Exact:      true,
	}
}

func testObserved() observed {
	return observed{Pairs: map[string]string{"A": "x", "B": "y", "C": "z"}, Score: 12.5}
}

func TestCheckAcceptsIdenticalResult(t *testing.T) {
	o := testObserved()
	o.Score *= 1 + scoreTol/2
	if err := testRef().check(o); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsSwappedPair(t *testing.T) {
	o := testObserved()
	o.Pairs["A"], o.Pairs["B"] = o.Pairs["B"], o.Pairs["A"]
	err := testRef().check(o)
	if err == nil || errors.Is(err, errTruncated) {
		t.Fatalf("swapped pair: err = %v", err)
	}
}

func TestCheckRejectsMissingOrExtraPair(t *testing.T) {
	o := testObserved()
	delete(o.Pairs, "C")
	if testRef().check(o) == nil {
		t.Error("missing pair accepted")
	}
	o = testObserved()
	o.Pairs["D"] = "w"
	if testRef().check(o) == nil {
		t.Error("extra pair accepted")
	}
}

func TestCheckRejectsPerturbedScore(t *testing.T) {
	o := testObserved()
	o.Score *= 1 + 10*scoreTol
	err := testRef().check(o)
	if err == nil || errors.Is(err, errTruncated) {
		t.Fatalf("perturbed score: err = %v", err)
	}
}

func TestCheckRejectsExactBelowTruth(t *testing.T) {
	r := testRef()
	r.TruthScore = 13
	if err := r.check(testObserved()); err == nil {
		t.Fatal("an exact result scoring below the ground truth was accepted")
	}
	r.Exact = false
	if err := r.check(testObserved()); err != nil {
		t.Fatalf("a heuristic result may score below the ground truth: %v", err)
	}
}

func TestCheckDoesNotCompareTruncated(t *testing.T) {
	o := testObserved()
	o.Truncated = true
	o.Pairs = nil // would fail the comparison if it were made
	if err := testRef().check(o); !errors.Is(err, errTruncated) {
		t.Fatalf("truncated result: err = %v, want errTruncated", err)
	}
}

func TestCheckMatchCountsFailures(t *testing.T) {
	rep := newReport()
	ref := testRef()
	if !checkMatch(rep, ref, "ok", matchOut{Pairs: testObserved().Pairs, Score: 12.5}, nil) {
		t.Fatal("a correct match was not counted as a success")
	}
	checkMatch(rep, ref, "cut", matchOut{Truncated: true}, nil)
	checkMatch(rep, ref, "error", matchOut{}, errors.New("read failed"))
	checkMatch(rep, ref, "wrong", matchOut{Pairs: map[string]string{"A": "y"}, Score: 12.5}, nil)
	if rep.attempted != 4 || rep.failed != 3 || len(rep.wrong) != 1 {
		t.Fatalf("attempted %d failed %d wrong %v", rep.attempted, rep.failed, rep.wrong)
	}
}
