package main

import (
	"strings"
	"testing"
)

func keyed(id uint64, stream int, keys ...uint32) *rec {
	var s msgSpec
	s.nkeys = copy(s.keys[:], keys)
	r := &rec{}
	r.reset(id, stream, s, phaseMeasure)
	return r
}

func sequential(id uint64) *rec {
	r := &rec{}
	r.reset(id, 0, msgSpec{seq: true}, phaseMeasure)
	return r
}

func wantViolation(t *testing.T, c *checker, substr string) {
	t.Helper()
	if c.violations.Load() == 0 {
		t.Fatalf("no violation, want one mentioning %q", substr)
	}
	if v := c.firstViolation(); !strings.Contains(v, substr) {
		t.Fatalf("first violation %q, want one mentioning %q", v, substr)
	}
}

func TestCheckerCleanRun(t *testing.T) {
	c := newChecker(8, 2)
	o := newOrdinals(8, 2)
	rs := []*rec{keyed(1, 0, 1), keyed(2, 0, 1, 2), keyed(3, 1, 1), sequential(4), keyed(5, 0, 1)}
	for _, r := range rs {
		o.assign(r)
		c.begin(r)
		c.end(r)
		c.settled(r)
	}
	// Disjoint key sets may overlap in time.
	a, b := keyed(6, 0, 3), keyed(7, 1, 4, 5)
	c.begin(a)
	c.begin(b)
	c.end(a)
	c.end(b)
	if n := c.violations.Load(); n != 0 {
		t.Fatalf("%d violations on a clean run: %s", n, c.firstViolation())
	}
}

func TestCheckerRanTwice(t *testing.T) {
	c := newChecker(8, 1)
	r := keyed(1, 0, 1)
	c.begin(r)
	c.end(r)
	c.begin(r)
	wantViolation(t, c, "ran 2 times")
}

func TestCheckerNeverRan(t *testing.T) {
	c := newChecker(8, 1)
	c.settled(keyed(1, 0, 1))
	wantViolation(t, c, "ran 0 times")
}

func TestCheckerDeadLetteredIsNotDoubleCounted(t *testing.T) {
	c := newChecker(8, 1)
	r := keyed(1, 0, 1)
	r.state.Store(recDead)
	c.settled(r)
	if c.violations.Load() != 0 {
		t.Fatal("a dead-lettered message is counted where it is dead-lettered, not again")
	}
}

func TestCheckerOverlappingKeys(t *testing.T) {
	c := newChecker(8, 1)
	c.begin(keyed(1, 0, 1, 2))
	c.begin(keyed(2, 0, 2))
	wantViolation(t, c, "held key 2")
}

func TestCheckerSequentialNotAlone(t *testing.T) {
	c := newChecker(8, 1)
	c.begin(keyed(1, 0, 3))
	c.begin(sequential(2))
	wantViolation(t, c, "sequential 2 ran while 1 held key 3")

	c = newChecker(8, 1)
	c.begin(sequential(1))
	c.begin(keyed(2, 0, 3))
	wantViolation(t, c, "ran during sequential 1")

	c = newChecker(8, 1)
	c.begin(sequential(1))
	c.begin(sequential(2))
	wantViolation(t, c, "overlapped sequential")
}

func TestCheckerPerKeyOrder(t *testing.T) {
	c := newChecker(8, 2)
	o := newOrdinals(8, 2)
	first, second := keyed(1, 0, 5), keyed(2, 0, 5)
	other := keyed(3, 1, 5) // another stream: its own order
	for _, r := range []*rec{first, second, other} {
		o.assign(r)
	}
	if first.ord != 1 || second.ord != 2 || other.ord != 1 {
		t.Fatalf("ordinals %d %d %d, want 1 2 1", first.ord, second.ord, other.ord)
	}
	c.begin(other)
	c.end(other)
	c.begin(second)
	wantViolation(t, c, "ran as #2 after #0")
}

func TestOrdinalsSkipUnorderedMessages(t *testing.T) {
	o := newOrdinals(8, 1)
	for _, r := range []*rec{keyed(1, 0, 1, 2), sequential(2)} {
		o.assign(r)
		if r.ord != 0 {
			t.Fatalf("message %d got ordinal %d; only single-key messages are order-checked", r.id, r.ord)
		}
	}
}

func TestRecRingSettlesPreviousOccupant(t *testing.T) {
	c := newChecker(8, 1)
	rr := newRecRing(2)
	r, err := rr.take(1, c)
	if err != nil {
		t.Fatal(err)
	}
	r.reset(1, 0, msgSpec{keys: [2]uint32{1}, nkeys: 1}, phaseMeasure)
	c.begin(r)
	c.end(r)
	r.state.Store(recDone)
	r.runs.Add(1) // a second run the handler path did not see
	if _, err := rr.take(3, c); err != nil {
		t.Fatal(err)
	}
	wantViolation(t, c, "ran 2 times")
}
