package pdq

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// kindsOf projects a snapshot onto its kind sequence for order checks.
func kindsOf(evs []TraceEvent) []TraceKind {
	ks := make([]TraceKind, len(evs))
	for i, ev := range evs {
		ks[i] = ev.Kind
	}
	return ks
}

// containsInOrder reports whether want appears as a subsequence of got.
func containsInOrder(got []TraceKind, want ...TraceKind) bool {
	i := 0
	for _, k := range got {
		if i < len(want) && k == want[i] {
			i++
		}
	}
	return i == len(want)
}

// A rate-1 traced queue must record the complete lifecycle of a keyed
// entry — admission, claim join, dispatch, handler start/end,
// completion — under one nonzero trace ID, timestamped in
// non-decreasing scheduling-clock order, and a second snapshot must be
// empty (snapshots consume).
func TestTraceFullLifecycle(t *testing.T) {
	q := New(WithTrace(1))
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(7)))
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("expected dispatchable entry")
	}
	if e.Message().TraceID == 0 {
		t.Fatal("rate-1 sampler left the message untraced")
	}
	if err := q.Run(e); err != nil {
		t.Fatalf("Run: %v", err)
	}

	evs := q.TraceSnapshot()
	want := []TraceKind{TraceEnqueue, TraceRingDrain, TraceClaimJoin, TraceDispatch,
		TraceHandlerStart, TraceHandlerEnd, TraceComplete}
	if !containsInOrder(kindsOf(evs), want...) {
		t.Fatalf("lifecycle kinds out of order: got %v, want subsequence %v", kindsOf(evs), want)
	}
	id := evs[0].TraceID
	for i, ev := range evs {
		if ev.TraceID != id || id == 0 {
			t.Fatalf("event %d trace id = %d, want %d (nonzero)", i, ev.TraceID, id)
		}
		if i > 0 && ev.At < evs[i-1].At {
			t.Fatalf("event %d timestamp regressed: %d after %d", i, ev.At, evs[i-1].At)
		}
		switch ev.Kind {
		case TraceDispatch, TraceHandlerStart, TraceHandlerEnd, TraceComplete:
			if ev.Seq != 1 {
				t.Fatalf("%s seq = %d, want 1", ev.Kind, ev.Seq)
			}
		case TraceEnqueue:
			if ev.Arg != 0 && ev.Arg != 1 {
				t.Fatalf("enqueue arg = %d, want 0 (mutex path) or 1 (intake ring)", ev.Arg)
			}
		case TraceClaimJoin:
			if ev.Arg != 1 {
				t.Fatalf("claim_join arg = %d, want key count 1", ev.Arg)
			}
		}
	}

	st := q.Stats()
	if st.TraceSampled != 1 {
		t.Fatalf("TraceSampled = %d, want 1", st.TraceSampled)
	}
	if st.TraceRecorded != uint64(len(evs)) {
		t.Fatalf("TraceRecorded = %d, want %d", st.TraceRecorded, len(evs))
	}
	if st.TraceDropped != 0 {
		t.Fatalf("TraceDropped = %d, want 0", st.TraceDropped)
	}
	if again := q.TraceSnapshot(); len(again) != 0 {
		t.Fatalf("second snapshot returned %d events, want 0 (consuming)", len(again))
	}
}

// An untraced queue must expose the whole trace surface as inert: nil
// snapshots, a zero sampler, no-op external recording, zero counters,
// and unstamped messages.
func TestTraceDisabled(t *testing.T) {
	q := New()
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(1)))
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("expected dispatchable entry")
	}
	if e.Message().TraceID != 0 {
		t.Fatalf("untraced queue stamped TraceID %d", e.Message().TraceID)
	}
	q.Complete(e)
	q.RecordTraceEvent(42, TraceRecv, 1, 2) // must not panic
	if got := q.TraceSnapshot(); got != nil {
		t.Fatalf("TraceSnapshot = %v, want nil", got)
	}
	if id := q.TraceSampleID(); id != 0 {
		t.Fatalf("TraceSampleID = %d, want 0", id)
	}
	st := q.Stats()
	if st.TraceSampled != 0 || st.TraceRecorded != 0 || st.TraceDropped != 0 {
		t.Fatalf("trace counters nonzero on untraced queue: %+v", st)
	}
}

// A fractional rate must sample every stride-th admission: rate 0.25
// over 8 admissions elects exactly 2.
func TestTraceSamplingStride(t *testing.T) {
	q := New(WithTrace(0.25))
	for i := 0; i < 8; i++ {
		mustEnqueue(t, q.Enqueue(func(any) {}, NoSync()))
	}
	if st := q.Stats(); st.TraceSampled != 2 {
		t.Fatalf("TraceSampled = %d, want 2 of 8 at rate 0.25", st.TraceSampled)
	}
}

// WithTraceID must force a message into the recorder under the caller's
// ID, bypassing the sampler.
func TestTraceForcedID(t *testing.T) {
	q := New(WithTrace(0.0001)) // stride 10000: the sampler stays silent here
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(3), WithTraceID(99)))
	e, ok := q.TryDequeue()
	if !ok {
		t.Fatal("expected dispatchable entry")
	}
	if err := q.Run(e); err != nil {
		t.Fatalf("Run: %v", err)
	}
	evs := q.TraceSnapshot()
	if len(evs) == 0 {
		t.Fatal("forced trace recorded nothing")
	}
	for _, ev := range evs {
		if ev.TraceID != 99 {
			t.Fatalf("event trace id = %d, want forced 99", ev.TraceID)
		}
	}
	if st := q.Stats(); st.TraceSampled != 0 {
		t.Fatalf("TraceSampled = %d, want 0 (forced IDs bypass the sampler)", st.TraceSampled)
	}
}

// RecordTraceEvent must validate its inputs (zero ID, out-of-range
// kind) and otherwise inject the event verbatim.
func TestRecordTraceEvent(t *testing.T) {
	q := New(WithTrace(1))
	q.RecordTraceEvent(0, TraceRecv, 1, 2)      // zero ID: dropped
	q.RecordTraceEvent(5, TraceKind(0), 1, 2)   // zero kind: dropped
	q.RecordTraceEvent(5, traceKindEnd, 1, 2)   // out of range: dropped
	q.RecordTraceEvent(5, TraceKind(200), 1, 2) // far out of range: dropped
	q.RecordTraceEvent(5, TraceForward, 7, -3)  // valid
	evs := q.TraceSnapshot()
	if len(evs) != 1 {
		t.Fatalf("snapshot has %d events, want 1 (invalid records dropped)", len(evs))
	}
	ev := evs[0]
	if ev.TraceID != 5 || ev.Kind != TraceForward || ev.Seq != 7 || ev.Arg != -3 {
		t.Fatalf("event = %+v, want id=5 kind=forward seq=7 arg=-3", ev)
	}
}

// Lapping a shard ring must overwrite the oldest events and count every
// loss: emitted + dropped == recorded, with the snapshot bounded by the
// ring capacity.
func TestTraceRingOverwriteDrops(t *testing.T) {
	q := New(WithTrace(1), WithShards(1))
	const msgs = traceRingSize + 1000
	for i := 0; i < msgs; i++ {
		mustEnqueue(t, q.Enqueue(func(any) {}, NoSync()))
	}
	evs := q.TraceSnapshot()
	if len(evs) > traceRingSize {
		t.Fatalf("snapshot has %d events, ring holds %d", len(evs), traceRingSize)
	}
	st := q.Stats()
	if st.TraceDropped == 0 {
		t.Fatal("lapped ring reported no drops")
	}
	if got := uint64(len(evs)) + st.TraceDropped; got != st.TraceRecorded {
		t.Fatalf("emitted(%d) + dropped(%d) = %d, want recorded %d",
			len(evs), st.TraceDropped, got, st.TraceRecorded)
	}
}

// The failure path must trace releases, the retry re-admission (keeping
// the original trace ID across attempts), and the terminal dead-letter.
func TestTraceRetryDeadLetter(t *testing.T) {
	dead := 0
	q := New(WithTrace(1), WithRetry(1), WithDeadLetter(func(Message, error) { dead++ }))
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(9)))
	boom := errors.New("boom")
	for attempt := 0; attempt < 2; attempt++ {
		e, ok := q.TryDequeue()
		if !ok {
			t.Fatalf("attempt %d: expected dispatchable entry", attempt)
		}
		q.Release(e, boom)
	}
	if dead != 1 {
		t.Fatalf("dead-letter hook ran %d times, want 1", dead)
	}
	evs := q.TraceSnapshot()
	got := kindsOf(evs)
	want := []TraceKind{TraceEnqueue, TraceDispatch, TraceRelease, TraceRetry,
		TraceDispatch, TraceRelease, TraceDeadLetter}
	if !containsInOrder(got, want...) {
		t.Fatalf("failure lifecycle kinds = %v, want subsequence %v", got, want)
	}
	id := evs[0].TraceID
	for i, ev := range evs {
		if ev.TraceID != id {
			t.Fatalf("event %d trace id = %d, want %d (retry must keep its ID)", i, ev.TraceID, id)
		}
	}
}

// An entry expiring undispatched must trace the expiry and the
// dead-letter handoff.
func TestTraceExpire(t *testing.T) {
	q := New(WithTrace(1), WithDeadLetter(func(Message, error) {}))
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(4), WithTTL(time.Microsecond)))
	time.Sleep(5 * time.Millisecond)
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("expired entry dispatched")
	}
	got := kindsOf(q.TraceSnapshot())
	if !containsInOrder(got, TraceEnqueue, TraceExpire, TraceDeadLetter) {
		t.Fatalf("expiry kinds = %v, want enqueue..expire..dead_letter", got)
	}
}

// A CompleteNext chain handoff must record TraceHandoff on the
// successor with Arg = the predecessor's seq — the link cmd/pdqtrace
// stitches chain critical paths from.
func TestTraceHandoffChain(t *testing.T) {
	q := New(WithTrace(1))
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(11)))
	mustEnqueue(t, q.Enqueue(func(any) {}, WithKey(11)))
	e1, ok := q.TryDequeue()
	if !ok {
		t.Fatal("expected dispatchable entry")
	}
	// An entry is invalid once resolved, so capture what the checks
	// below need before each Run.
	e1Seq := e1.Seq()
	next, ok, err := q.RunNext(e1)
	if err != nil {
		t.Fatalf("RunNext: %v", err)
	}
	if !ok {
		t.Fatal("RunNext did not hand off to the queued successor")
	}
	nextID, nextSeq := next.Message().TraceID, next.Seq()
	if err := q.Run(next); err != nil {
		t.Fatalf("Run(next): %v", err)
	}
	var handoffs []TraceEvent
	for _, ev := range q.TraceSnapshot() {
		if ev.Kind == TraceHandoff {
			handoffs = append(handoffs, ev)
		}
	}
	if len(handoffs) != 1 {
		t.Fatalf("recorded %d handoff events, want 1", len(handoffs))
	}
	h := handoffs[0]
	if h.TraceID != nextID {
		t.Fatalf("handoff trace id = %d, want successor's %d", h.TraceID, nextID)
	}
	if h.Seq != nextSeq || h.Arg != int64(e1Seq) {
		t.Fatalf("handoff seq=%d arg=%d, want seq=%d (successor) arg=%d (predecessor)",
			h.Seq, h.Arg, nextSeq, e1Seq)
	}
}

// TraceKind names must round-trip through JSON for every defined kind,
// and unknown names must be rejected.
func TestTraceKindJSONRoundTrip(t *testing.T) {
	for k := TraceEnqueue; k < traceKindEnd; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal kind %d: %v", k, err)
		}
		var back TraceKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Fatalf("kind %d round-tripped to %d via %s", k, back, b)
		}
	}
	var k TraceKind
	if err := json.Unmarshal([]byte(`"warp_core_breach"`), &k); err == nil {
		t.Fatal("unknown kind name unmarshalled without error")
	}
}

// WriteTraceJSONL must emit one decodable object per line with the
// stable field names.
func TestWriteTraceJSONL(t *testing.T) {
	evs := []TraceEvent{
		{TraceID: 1, Node: 2, Shard: 3, Kind: TraceEnqueue, At: 100, Seq: 4, Arg: 1},
		{TraceID: 1, Node: 2, Shard: 3, Kind: TraceComplete, At: 200, Seq: 4},
	}
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, evs); err != nil {
		t.Fatalf("WriteTraceJSONL: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var back TraceEvent
	if err := json.Unmarshal(lines[0], &back); err != nil {
		t.Fatalf("line 0 does not decode: %v", err)
	}
	if back != evs[0] {
		t.Fatalf("round-trip = %+v, want %+v", back, evs[0])
	}
	if !bytes.Contains(lines[0], []byte(`"kind":"enqueue"`)) {
		t.Fatalf("line 0 lacks stable kind name: %s", lines[0])
	}
}

// NewTraceID must never return 0 and must not repeat over a large draw.
func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[uint64]bool, 10000)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("NewTraceID returned 0")
		}
		if seen[id] {
			t.Fatalf("NewTraceID repeated %d", id)
		}
		seen[id] = true
	}
}
