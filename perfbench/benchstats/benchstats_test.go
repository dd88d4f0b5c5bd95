package benchstats

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, 10, 0, 0, 7}, 0},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5.5, 1.25, 9, 2, 7, 3.5, 8, 4, 6, 10.75}, [3]float64{3.125, 5.75, 8.25}},
		{[]float64{2, 4, 4, 5}, [3]float64{2.5, 4, 4.75}},
	}
	for _, c := range cases {
		q1, q2, q3, err := Quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("Quartiles of one sample did not fail")
	}
}

func TestSpread(t *testing.T) {
	got, err := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if _, err := Spread([]float64{-1, 0, 1}); err == nil {
		t.Error("Spread with a zero median did not fail")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the sort is exercised
		}
		return xs
	}
	got, err := Percentile(mk(1000), 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if _, err := Percentile(mk(999), 99); err == nil || !strings.Contains(err.Error(), "1000 samples") {
		t.Errorf("p99 of 999 samples: err = %v, want a refusal naming 1000 samples", err)
	}
	if got, err := Percentile(mk(100), 90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := Percentile(mk(99), 90); err == nil {
		t.Error("p90 of 99 samples did not fail")
	}
	if got, err := Percentile(mk(20), 50); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
	if _, err := Percentile(mk(10), 100); err == nil {
		t.Error("p100 did not fail")
	}
}
