package vtime

import "unsafe"

// QueueCap is the number of events the queue's chunks can hold.
func (s *Sim) QueueCap() int { return len(s.evq.chunks) * evChunk }

// EventChunk and EventSize size the queue's storage for the give-back tests.
const (
	EventChunk = evChunk
	EventSize  = int(unsafe.Sizeof(event{}))
)
