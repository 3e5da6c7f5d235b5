package vtime

import "unsafe"

// QueueCap is the number of events the queue's chunks can hold.
func (s *Sim) QueueCap() int { return len(s.evq.chunks) * evChunk }

// BatchCap is the number of batches the batch table's chunks can hold.
func (s *Sim) BatchCap() int { return len(s.batches.chunks) * batchChunk }

// EventChunk, BatchChunk and EventSize size the queue's storage for the
// give-back tests.
const (
	EventChunk = evChunk
	BatchChunk = batchChunk
	EventSize  = int(unsafe.Sizeof(event{}))
)
