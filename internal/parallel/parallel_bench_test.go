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

func BenchmarkStripedLock(b *testing.B) {
	locks := NewStripedLocks()
	b.RunParallel(func(pb *testing.PB) {
		k := uint32(0)
		for pb.Next() {
			locks.Lock(k)
			locks.Unlock(k)
			k += 7
		}
	})
}
