package core

import (
	"testing"

	"srb/internal/geom"
	"srb/internal/query"
)

// The tests in this file replay the server's event loop when several updates
// wait in its queue: an object has left its safe region and sent its update,
// but the update is still queued behind the current operation. A probe in
// that operation finds the object outside its safe region, and the queued
// update later reports the probed position again.

// queue moves object id without processing its update yet.
func (w *world) queue(id uint64, p geom.Point) {
	w.pos[id] = p
	if w.safe[id].Contains(p) {
		w.t.Fatalf("object %d: queued position %v is inside its safe region %v", id, p, w.safe[id])
	}
}

// deliver processes the queued update of object id.
func (w *world) deliver(id uint64) {
	w.apply(w.mon.Update(id, w.pos[id]))
}

func (w *world) checkKNN(qid query.ID, qp geom.Point, k int) {
	w.t.Helper()
	got, _ := w.mon.Results(qid)
	if want := w.bruteKNN(qp, k); !equalSeq(got, want) {
		w.t.Fatalf("kNN query %d: got %v, want %v", qid, got, want)
	}
	if err := w.mon.CheckInvariants(); err != nil {
		w.t.Fatal(err)
	}
}

// TestKNNEnterProbesMovedResult covers reevaluation case 2 of an
// order-sensitive kNN query (an object enters the quarantine circle) when the
// probe that places the entering object finds a result far outside its safe
// region. The extended order is then no longer sorted, and the k-th distance
// lies beyond the old circle. Growing the circle to it would cover other
// objects' safe regions without a search; the query must be reevaluated.
func TestKNNEnterProbesMovedResult(t *testing.T) {
	w := newWorld(t, Options{})
	qp := geom.Pt(0.5, 0.5)
	const (
		a, b, c, d = 1, 2, 3, 4
		k          = 2
	)
	w.add(a, geom.Pt(0.6, 0.5))  // 1st NN, distance 0.1
	w.add(b, geom.Pt(0.5, 0.72)) // 2nd NN, distance 0.22
	w.add(c, geom.Pt(0.2, 0.5))  // 3rd, distance 0.3
	w.add(d, geom.Pt(0.9, 0.9))  // far
	if _, upd, err := w.mon.RegisterKNN(1, qp, k, true); err != nil {
		t.Fatal(err)
	} else {
		w.apply(upd)
	}
	w.checkKNN(1, qp, k)

	// a leaves for distance 0.45; its update waits in the queue.
	w.queue(a, geom.Pt(0.95, 0.5))
	// d enters the quarantine at a distance inside a's distance interval, so
	// placing d probes a.
	sa := w.safe[a]
	dist := (sa.MinDist(qp) + sa.MaxDist(qp)) / 2
	w.pos[d] = geom.Pt(0.5, 0.5-dist)
	w.deliver(d)
	w.deliver(a)
	if w.mon.Stats().Probes == 0 {
		t.Fatal("scenario did not probe the moved result")
	}
	w.checkKNN(1, qp, k)
}

// TestRegisterSettlesObjectProbedWhileSettling covers the settling step of a
// registration: probes made while evaluating the new query q reveal movement
// that other queries must see, and reevaluating those queries can probe
// further objects. Such an object was probed after q was evaluated, so q must
// not be skipped for it: here it has moved into q's rectangle, and its queued
// update, which reports the probed position again, shows no movement.
func TestRegisterSettlesObjectProbedWhileSettling(t *testing.T) {
	w := newWorld(t, Options{})
	p1 := geom.Pt(0.3, 0.3)
	const (
		y, x, z = 1, 2, 3
		knnID   = 1
		rangeID = 2
	)
	w.add(y, geom.Pt(0.31, 0.3))   // the 1NN of p1
	w.add(x, geom.Pt(0.3, 0.33))   // 2nd, distance 0.03
	w.add(z, geom.Pt(0.3, 0.2665)) // 3rd, distance 0.0335: x and z are close calls
	if _, upd, err := w.mon.RegisterKNN(knnID, p1, 1, true); err != nil {
		t.Fatal(err)
	} else {
		w.apply(upd)
	}
	w.checkKNN(knnID, p1, 1)

	// The new range query cuts through y's safe region only, so evaluating
	// it probes y and nothing else.
	rq := geom.R(0.306, 0.302, 0.5, 0.319)
	if !rq.Intersects(w.safe[y]) || rq.ContainsRect(w.safe[y]) || rq.Intersects(w.safe[x]) || rq.Intersects(w.safe[z]) {
		t.Fatalf("scenario geometry: query %v vs safe regions y %v, x %v, z %v", rq, w.safe[y], w.safe[x], w.safe[z])
	}
	// y has left p1's quarantine circle and x has moved into the query;
	// both updates wait in the queue.
	w.queue(y, geom.Pt(0.8, 0.8))
	w.queue(x, geom.Pt(0.4, 0.31))
	got, upd, err := w.mon.RegisterRange(rangeID, rq)
	if err != nil {
		t.Fatal(err)
	}
	w.apply(upd)
	// Settling y's probe refills p1's kNN query, which has to tell x from z
	// and probes x after the range query was evaluated.
	if loc, _ := w.mon.LastReported(x); !loc.Eq(w.pos[x]) {
		t.Fatalf("scenario did not probe x while settling: last reported %v", loc)
	}
	if len(got) != 0 {
		t.Fatalf("initial result %v, want none: x was not probed when the query was evaluated", got)
	}
	w.deliver(y)
	w.deliver(x)
	if res, _ := w.mon.Results(rangeID); !equalSeq(res, w.bruteRange(rq)) {
		t.Fatalf("range query: got %v, want %v", res, w.bruteRange(rq))
	}
	w.checkKNN(knnID, p1, 1)
}
