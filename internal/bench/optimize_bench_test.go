package bench

import (
	"testing"
	"time"

	"tango/internal/algebra"
)

// BenchmarkOptimize times the optimizer alone on the paper's four
// queries over plan-small-sized tables (2,000 POSITION and 800
// EMPLOYEE rows, fitting the buffer pool), with no simulated latency
// and no plan cap beyond the default. The memo's size and the number
// of candidates extracted are reported as custom metrics.
func BenchmarkOptimize(b *testing.B) {
	sys, err := NewSystem(Config{PositionRows: 2000, EmployeeRows: 800, Histograms: 10})
	if err != nil {
		b.Fatal(err)
	}
	end := Day(1990, time.January, 1)
	for _, q := range []struct {
		name    string
		initial func() *algebra.Node
	}{
		{"Q1", Q1Initial},
		{"Q2", func() *algebra.Node { return Q2Initial(end) }},
		{"Q3", func() *algebra.Node { return Q3Initial(end) }},
		{"Q4", Q4Initial},
	} {
		b.Run(q.name, func(b *testing.B) {
			initial := q.initial()
			b.ReportAllocs()
			b.ResetTimer()
			var classes, elements, candidates int
			for i := 0; i < b.N; i++ {
				res, err := sys.MW.Optimize(initial)
				if err != nil {
					b.Fatal(err)
				}
				classes, elements, candidates = res.Classes, res.Elements, len(res.Candidates)
			}
			b.ReportMetric(float64(classes), "classes")
			b.ReportMetric(float64(elements), "elements")
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}
