package parallel

import "testing"

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		For(100000, func(int) {})
	}
}

func BenchmarkForWorkerSum(b *testing.B) {
	c := NewCounter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForWorker(100000, 512, func(worker, start, end int) {
			c.Add(worker, int64(end-start))
		})
	}
}
