package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		wantPc float64
	}{
		{21, 11, 100 * 11.0 / 21},
		{40, 30, 75},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		v, pc, ok := tail(seq(tc.n))
		if !ok || v != tc.want || pc != tc.wantPc {
			t.Errorf("n=%d: tail = %v at p%v (ok %v), want %v at p%v", tc.n, v, pc, ok, tc.want, tc.wantPc)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestTailTooFewSamples(t *testing.T) {
	// Up to 20 samples the sample at rank n-10 would lie below the median.
	for _, n := range []int{1, 5, 10, 11, 20} {
		v, pc, ok := tail(seq(n))
		if ok {
			t.Errorf("n=%d: a tail was claimed from too few samples", n)
		}
		if want := median(seq(n)); v != want || pc != 50 {
			t.Errorf("n=%d: got %v at p%v, want the median %v at p50", n, v, pc, want)
		}
	}
	if _, _, ok := tail(nil); ok {
		t.Error("an empty sample claimed a tail")
	}
	if s := summarize(seq(4)); s.TailOK || s.N != 4 || s.P50 != 2.5 {
		t.Errorf("summarize(4 samples) = %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}
