package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 3, 9}, 1.75, 3.5, 6},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median(nil) = %v, want NaN", m)
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
	// A failed operation enters as +Inf: percentiles that reach it read
	// +Inf, lower ones are unaffected.
	lat := []float64{3, 1, math.Inf(1), 2}
	if p := percentile(lat, 50); p != 2 {
		t.Errorf("p50 = %v, want 2", p)
	}
	if p := percentile(lat, 90); !math.IsInf(p, 1) {
		t.Errorf("p90 = %v, want +Inf", p)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v := tailPercentile(xs)
		if p != c.want {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, p, c.want)
			continue
		}
		if p == 0 {
			if !math.IsNaN(v) {
				t.Errorf("n=%d: value %v, want NaN", c.n, v)
			}
			continue
		}
		if beyond := c.n - int(v); beyond < 10 {
			t.Errorf("n=%d: p%v = %v has %d samples beyond it", c.n, p, v, beyond)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "rec_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "WORSE"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "WORSE"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{lower, []float64{60, 100, 140, 80, 120}, []float64{125, 130, 120, 130, 128}, "unresolved"},
		{lower, []float64{60, 100, 140, 80, 120}, []float64{50, 55, 52, 51, 50}, "ok"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
