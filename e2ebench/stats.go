package main

import (
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// summary is a latency distribution reduced to the two figures the
// benchmark reports: the median and the highest percentile that still has
// tailBeyond samples beyond it.
type summary struct {
	N      int
	P50    float64
	Tail   float64
	TailPc float64 // percentile of Tail; 50 when the sample is too small
	TailOK bool    // false when the sample is too small to support a tail
	Max    float64
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.P50 = median(xs)
	s.Tail, s.TailPc, s.TailOK = tail(xs)
	s.Max = slices.Max(xs)
	return s
}

// tail returns the highest percentile with at least tailBeyond samples
// strictly beyond it: with n sorted samples that is the sample at index
// n-1-tailBeyond, the 100·(n-tailBeyond)/n percentile. A tail must also lie
// at or above the median, so fewer than 2·tailBeyond+1 samples support no
// tail. tail then returns the median at percentile 50 with ok false, so the
// caller can say so: the maximum of a few samples would swing with any one
// slow run, and the median keeps the figure comparable between runs.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	if n < 2*tailBeyond+1 {
		return median(xs), 50, false
	}
	s := sortedCopy(xs)
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hostCPU reads the machine-wide CPU time counters from /proc/stat: the
// time stolen by the hypervisor and the total. It returns zeros where
// /proc/stat is missing.
func hostCPU() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter reports the share of CPU time the hypervisor took from this
// machine while the benchmark measured: the first thing to read when a
// run's times stray.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t := hostCPU()
	return stealMeter{s, t}
}

func (m stealMeter) note(rep *report) {
	s, t := hostCPU()
	rep.notef("host: %.1f%% of CPU time stolen by the hypervisor while measuring", 100*ratio(s-m.steal, t-m.total))
}
