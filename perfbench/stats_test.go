package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {5, 50}, {19, 50}, {20, 50}, {99, 50},
		{100, 90}, {150, 90}, {999, 90},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestTailLeavesTenBeyond checks the rule itself on data: at the reported
// percentile at least ten samples lie strictly above the reported value,
// and at the next candidate up fewer than ten would.
func TestTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{100, 150, 1000, 1500} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending, so tail must sort
		}
		v, pct := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%v = %v has %d samples beyond it, want >= %d", n, pct, v, beyond, minBeyond)
		}
		for _, p := range tailCandidates {
			if float64(p)/10 > pct && n*(1000-p)/1000 >= minBeyond {
				t.Errorf("n=%d: p%v qualifies but p%v was reported", n, float64(p)/10, pct)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestLatencyHistQuantile(t *testing.T) {
	var h latencyHist
	for ns := int64(1); ns <= 100000; ns++ {
		h.record(ns)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		want := p * 100000
		if got := h.quantile(p); math.Abs(got-want)/want > 0.05 {
			t.Errorf("p%v = %v, want %v within 5%%", p*100, got, want)
		}
	}
	var empty latencyHist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty histogram median = %v, want 0", got)
	}
}
