package core

// ForceDirection pins every ⋃△ call of e to one direction, dense (pull)
// or sparse (push), for the tests that check both give the same result.
// The engine itself always chooses by denseShare.
func (e *Engine[V, A]) ForceDirection(dense bool) {
	e.dir = dirSparse
	if dense {
		e.dir = dirDense
	}
}

// HistoryAccounting returns the dependency store's entry count and
// footprint as it reports them, and both counted afresh over an export
// of its histories.
func (e *Engine[V, A]) HistoryAccounting() (entries, heapBytes, countedEntries, countedBytes int64) {
	hist := e.hist.Export()
	countedBytes = 24 * int64(len(hist)) // slice headers
	for _, h := range hist {
		countedEntries += int64(len(h))
		for _, a := range h {
			countedBytes += int64(e.p.AggBytes(a))
		}
	}
	return e.hist.Entries(), e.hist.HeapBytes(), countedEntries, countedBytes
}
