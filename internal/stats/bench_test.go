package stats

import (
	"testing"
	"time"
)

func BenchmarkTimeSeriesAdd(b *testing.B) {
	s := NewTimeSeries(origin, 6*time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(origin.Add(time.Duration(i%368)*6*time.Hour), "tx", 1)
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 1000))
	}
	_ = w.Stdev()
}

func BenchmarkGini(b *testing.B) {
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = float64(i * i % 7919)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gini(xs)
	}
}
