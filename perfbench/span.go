package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// spanKind names a layer boundary the traced run records.
type spanKind uint8

const (
	spanSend           spanKind = iota + 1 // generator: one send, covering the call into the system
	spanEnqueue                            // pdq.Queue.EnqueueMessage
	spanDequeue                            // pdq DequeueContext / DequeueBatch
	spanRun                                // pdq RunNext / RunBatch
	spanHandler                            // the message's handler
	spanServe                              // pdqhttp.Server.ServeHTTP
	spanClusterEnqueue                     // cluster.Cluster.Enqueue
	spanWireRecv                           // a node's transport receive callback
)

var spanNames = [...]string{
	spanSend: "gen.send", spanEnqueue: "pdq.enqueue", spanDequeue: "pdq.dequeue",
	spanRun: "pdq.run", spanHandler: "handler", spanServe: "pdqhttp.serve",
	spanClusterEnqueue: "cluster.enqueue", spanWireRecv: "cluster.wire_recv",
}

// span is one recorded interval: its layer, the message it served (0 when
// it served several or none), the span that caused it, and its bounds.
type span struct {
	start, end int64
	msg        uint64
	parent     uint32
	kind       spanKind
}

// spanLog keeps the traced run's spans in memory, up to a fixed count,
// and writes them out when the run ends. The zero value (nil) records
// nothing, so untraced runs pay one nil check per boundary.
type spanLog struct {
	buf   []span
	ready []atomic.Bool // ready[i]: buf[i] is written; set last
	n     atomic.Int64
}

// spanLogCap bounds the spans kept per run (the first ones recorded).
const spanLogCap = 1 << 14

func newSpanLog() *spanLog {
	return &spanLog{buf: make([]span, spanLogCap), ready: make([]atomic.Bool, spanLogCap)}
}

// open reserves a span id for a boundary entered at start; 0 when the log
// is off or full. Ids are 1-based indexes into buf.
func (l *spanLog) open() uint32 {
	if l == nil {
		return 0
	}
	i := l.n.Add(1)
	if i > int64(len(l.buf)) {
		return 0
	}
	return uint32(i)
}

// close fills a reserved span.
func (l *spanLog) close(id uint32, kind spanKind, msg uint64, parent uint32, start, end int64) {
	if id == 0 {
		return
	}
	l.buf[id-1] = span{start: start, end: end, msg: msg, parent: parent, kind: kind}
	l.ready[id-1].Store(true)
}

// record opens and closes a span in one step, for leaves.
func (l *spanLog) record(kind spanKind, msg uint64, parent uint32, start, end int64) uint32 {
	id := l.open()
	l.close(id, kind, msg, parent, start, end)
	return id
}

// spans returns a copy of the kept spans, indexed by id-1. Late writers
// (a transport still delivering acks) may still be closing spans, so a
// span not yet closed is left zero.
func (l *spanLog) spans() []span {
	n := min(l.n.Load(), int64(len(l.buf)))
	out := make([]span, n)
	for i := range out {
		if l.ready[i].Load() {
			out[i] = l.buf[i]
		}
	}
	return out
}

// selfTime returns, per span kind, the summed self time of the kept spans:
// each span's duration minus the part of its interval that its child
// spans cover. A child caused by its parent may run after it (a handler
// after the enqueue that caused it); only the overlap counts.
func selfTime(ss []span) map[spanKind]int64 {
	covered := make([]int64, len(ss))
	for _, c := range ss {
		if c.kind == 0 || c.parent == 0 || int(c.parent) > len(ss) {
			continue
		}
		p := ss[c.parent-1]
		if o := min(c.end, p.end) - max(c.start, p.start); o > 0 {
			covered[c.parent-1] += o
		}
	}
	out := make(map[spanKind]int64)
	for i, s := range ss {
		if s.kind != 0 {
			out[s.kind] += s.end - s.start - covered[i]
		}
	}
	return out
}

// writeSpans stores spans as JSON lines in dir/name.
func writeSpans(ss []span, dir, name string) (string, error) {
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for i, s := range ss {
		if s.kind == 0 {
			continue // reserved but never closed
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"msg\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i+1, s.parent, spanNames[s.kind], s.msg, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
