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
