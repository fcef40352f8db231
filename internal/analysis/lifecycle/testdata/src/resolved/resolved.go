// Package resolved reproduces reads of an entry after the call that
// resolved it: the queue recycles a resolved entry's node, so such a
// read can observe another message.
package resolved

import "errors"

type Message struct{ TraceID uint64 }

type Entry struct {
	seq uint64
	msg Message
}

func (e *Entry) Seq() uint64      { return e.seq }
func (e *Entry) Message() Message { return e.msg }

type Queue struct{}

func (q *Queue) TryDequeue() (*Entry, bool)               { return nil, false }
func (q *Queue) TryDequeueBatch(max int) ([]*Entry, bool) { return nil, false }
func (q *Queue) Complete(e *Entry)                        {}
func (q *Queue) CompleteNext(e *Entry) (*Entry, bool)     { return nil, false }
func (q *Queue) Release(e *Entry, err error)              {}
func (q *Queue) Run(e *Entry) error                       { return nil }
func (q *Queue) RunNext(e *Entry) (*Entry, bool, error)   { return nil, false, nil }
func (q *Queue) RunBatch(es []*Entry) error               { return nil }

// chain is the handoff test's original shape: both links are read after
// the calls that resolved them.
func chain(q *Queue) (uint64, uint64) {
	e1, ok := q.TryDequeue()
	if !ok {
		return 0, 0
	}
	next, ok, _ := q.RunNext(e1)
	if !ok {
		return 0, 0
	}
	q.Run(next)
	return next.Message().TraceID, e1.Seq() // want `entry next used after Run` `entry e1 used after RunNext`
}

// captured reads what it needs before resolving: no finding.
func captured(q *Queue) uint64 {
	e, ok := q.TryDequeue()
	if !ok {
		return 0
	}
	seq := e.Seq()
	q.Complete(e)
	return seq
}

// laterStatement reads the entry in a nested block after the resolve.
func laterStatement(q *Queue, log func(uint64)) {
	e, ok := q.TryDequeue()
	if !ok {
		return
	}
	q.Release(e, errors.New("boom"))
	if log != nil {
		log(e.Seq()) // want `entry e used after Release`
	}
}

// sameStatement reads the entry in the branch of the statement that
// resolved it.
func sameStatement(q *Queue, log func(uint64)) {
	e, ok := q.TryDequeue()
	if !ok {
		return
	}
	if err := q.Run(e); err != nil {
		log(e.Seq()) // want `entry e used after Run`
	}
}

// batch reads an element of a resolved batch.
func batch(q *Queue) uint64 {
	es, ok := q.TryDequeueBatch(8)
	if !ok {
		return 0
	}
	q.RunBatch(es)
	return es[0].Seq() // want `entry es used after RunBatch`
}

// batchLen only measures the slice, which stays valid.
func batchLen(q *Queue) int {
	es, ok := q.TryDequeueBatch(8)
	if !ok {
		return 0
	}
	q.RunBatch(es)
	return len(es)
}

// branch resolves on one path and returns; the read below runs only on
// the other path: no finding.
func branch(q *Queue, fail bool) uint64 {
	e, ok := q.TryDequeue()
	if !ok {
		return 0
	}
	if fail {
		q.Release(e, errors.New("boom"))
		return 0
	}
	seq := e.Seq()
	q.Complete(e)
	return seq
}

// deferred resolves at function exit, after every read: no finding.
func deferred(q *Queue) uint64 {
	e, ok := q.TryDequeue()
	if !ok {
		return 0
	}
	defer q.Complete(e)
	return e.Seq()
}

// walk is the worker loop: the variable is rebound to the successor
// before it is read again: no finding.
func walk(q *Queue, e *Entry, trace func(uint64)) {
	for {
		trace(e.Seq())
		next, ok, _ := q.RunNext(e)
		if !ok {
			break
		}
		e = next
		trace(e.Seq())
	}
}

// rebound reassigns the variable in the resolving statement itself.
func rebound(q *Queue, e *Entry) uint64 {
	e, ok := q.CompleteNext(e)
	if !ok {
		return 0
	}
	seq := e.Seq()
	q.Complete(e)
	return seq
}
