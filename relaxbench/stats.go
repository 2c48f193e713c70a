package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is
// not modified. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedQuantile splits xs, in the order the samples were taken,
// into consecutive windows of size samples, takes the q-quantile of
// each and returns the median of those. A burst of load from outside
// the process then moves only the windows it overlaps, where it would
// move a tail quantile of the whole run as soon as it covers 1-q of
// it. A trailing partial window is left out; with fewer than size
// samples the whole of xs is one window.
func windowedQuantile(xs []float64, q float64, size int) float64 {
	if len(xs) < size {
		return quantile(xs, q)
	}
	per := make([]float64, 0, len(xs)/size)
	for i := 0; i+size <= len(xs); i += size {
		per = append(per, quantile(xs[i:i+size], q))
	}
	return median(per)
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsIn converts durations to floats in the unit f gives.
func durationsIn(ds []time.Duration, f func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = f(d)
	}
	return out
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
