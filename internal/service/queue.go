package service

import (
	"cmp"
	"errors"
	"slices"
	"sync"
)

// ErrQueueFull is the admission-control refusal: the queue is at capacity
// and the client should retry later (the HTTP layer maps it to 429 +
// Retry-After).
var ErrQueueFull = errors.New("service: job queue full")

// queue is a bounded priority FIFO: higher Priority pops first, ties pop
// in submission (seq) order. pop blocks until an item arrives or the queue
// closes; close lets drained workers exit.
type queue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	cap      int
	items    []*job // in pop order: priority desc, seq asc
	reserved int    // admission slots claimed by in-flight submissions
	closed   bool
}

func newQueue(capacity int) *queue {
	q := &queue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues without admission control — the boot path, requeueing
// jobs recovered from the state directory (they were admitted once; a
// restart must never drop them because the cap shrank).
func (q *queue) push(j *job) {
	q.mu.Lock()
	q.insertLocked(j)
	q.mu.Unlock()
}

// insertLocked files j in pop order and wakes one popper.
func (q *queue) insertLocked(j *job) {
	i, _ := slices.BinarySearchFunc(q.items, j, func(a, b *job) int {
		return cmp.Or(cmp.Compare(b.priority, a.priority), cmp.Compare(a.seq, b.seq))
	})
	q.items = slices.Insert(q.items, i, j)
	q.cond.Signal()
}

// reserve claims one admission slot ahead of the (fallible, slow) work of
// persisting a new job, so concurrent submissions can never overshoot the
// cap. Pair with pushReserved or unreserve.
func (q *queue) reserve() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errors.New("service: shutting down")
	}
	if q.cap > 0 && len(q.items)+q.reserved >= q.cap {
		return ErrQueueFull
	}
	q.reserved++
	return nil
}

// pushReserved converts a reservation into a queued job.
func (q *queue) pushReserved(j *job) {
	q.mu.Lock()
	q.reserved--
	q.insertLocked(j)
	q.mu.Unlock()
}

// unreserve releases a reservation whose job creation failed.
func (q *queue) unreserve() {
	q.mu.Lock()
	q.reserved--
	q.mu.Unlock()
}

// pop blocks for the next job; ok is false once the queue closes. A
// closed queue stops dispatching even with items still queued: shutdown
// leaves them persisted as "queued" for the next boot to pick up.
func (q *queue) pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	j = q.items[0]
	q.items = q.items[1:]
	return j, true
}

// remove pulls a queued job out (cancellation before a worker claims it).
func (q *queue) remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.IndexFunc(q.items, func(j *job) bool { return j.id == id })
	if i >= 0 {
		q.items = slices.Delete(q.items, i, i+1)
	}
	return i >= 0
}

// depth reports the queued-job count (admission headroom, /varz).
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops admission and wakes every blocked pop.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
