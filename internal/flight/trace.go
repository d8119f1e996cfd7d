package flight

import "time"

// Phases is the per-phase latency breakdown of one applied batch — the
// per-batch processing-time decomposition of the paper's §6 evaluation,
// measured from our own pipeline. Journal and Apply are disjoint: Apply
// is the engine's ApplyBatch call with the journal time subtracted out.
// The serve loop can only subtract what the durable layer charged to
// its recorder, so Journal is non-zero only when one recorder is set on
// both the loop and the durable engine; otherwise it is 0 and the WAL
// append counts in Apply.
type Phases struct {
	// QueueWait is Submit-enqueue to dequeue for the head batch.
	QueueWait time.Duration `json:"queue_wait"`
	// Coalesce is the time spent folding sibling batches into the head.
	Coalesce time.Duration `json:"coalesce"`
	// Validate is edge validation time at dequeue.
	Validate time.Duration `json:"validate"`
	// Journal is WAL append time charged to the recorder during the
	// apply call: the frame write plus the time spent waiting on the
	// fsync after the engine staged the batch (the rest of the fsync
	// overlaps Apply). 0 when no recorder receives the journal events.
	Journal time.Duration `json:"journal"`
	// Apply is the engine's ApplyBatch call, excluding Journal: graph
	// mutation, refinement and the engine's own publish (the O(V) value
	// copy into the new snapshot), which happens before ApplyBatch
	// returns.
	Apply time.Duration `json:"apply"`
	// Publish is from ApplyBatch's return to ticket resolution: the
	// loop's bookkeeping and the flight events, not the snapshot copy.
	Publish time.Duration `json:"publish"`
}

// Total sums the phases; for a completed trace it is within scheduling
// noise of CompletedAt.Sub(EnqueuedAt).
func (p Phases) Total() time.Duration {
	return p.QueueWait + p.Coalesce + p.Validate + p.Journal + p.Apply + p.Publish
}

// BatchTrace is the completed lifecycle record of one apply: the head
// batch's trace plus every sibling trace coalesced into it.
type BatchTrace struct {
	// ID is the head batch's trace ID (assigned at Submit).
	ID uint64 `json:"id"`
	// Traces lists every trace ID covered by this apply, head first; a
	// lone batch has exactly [ID].
	Traces []uint64 `json:"traces"`
	// Seq is the apply sequence number (generation), 0 when the batch
	// never applied (quarantine, terminal failure).
	Seq uint64 `json:"seq,omitempty"`
	// Batches is the number of submitted batches folded into the apply.
	Batches int `json:"batches"`
	// EnqueuedAt is when the head batch entered the queue.
	EnqueuedAt time.Time `json:"enqueued_at"`
	// CompletedAt is when the result was published (or the batch was
	// rejected terminally).
	CompletedAt time.Time `json:"completed_at"`
	// Err is the terminal error string, empty on success.
	Err string `json:"err,omitempty"`
	// Phases is the per-phase latency breakdown.
	Phases Phases `json:"phases"`
}

// E2E is the observed end-to-end latency, enqueue to publication.
func (bt BatchTrace) E2E() time.Duration {
	return bt.CompletedAt.Sub(bt.EnqueuedAt)
}

// Covers reports whether id is the head trace or one of the coalesced
// siblings.
func (bt BatchTrace) Covers(id uint64) bool {
	for _, t := range bt.Traces {
		if t == id {
			return true
		}
	}
	return false
}
