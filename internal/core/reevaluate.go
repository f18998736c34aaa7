package core

import (
	"math"
	"sort"
	"time"

	"srb/internal/geom"
	"srb/internal/query"
)

// Update processes a source-initiated location update from object id at its
// new exact position p (Algorithm 1, lines 8-15): it finds the affected
// queries through the grid index, incrementally reevaluates them (probing
// lazily), and recomputes the safe regions of the object and of every probed
// object. The returned slice carries the refreshed safe regions to send back
// to the clients; the first entry is always the updating object's.
//
//srb:hotpath
func (m *Monitor) Update(id uint64, p geom.Point) []SafeRegionUpdate {
	st, ok := m.objects[id]
	if !ok {
		return m.AddObject(id, p)
	}
	var t0 time.Time
	var before Stats
	if m.mobs != nil {
		t0, before = m.obsStart()
	}
	m.stats.SourceUpdates++
	if m.mobs != nil {
		m.mobs.lg.noteUpdate()
	}
	m.beginOp()
	pLst := st.lastLoc
	st.prevLoc = pLst
	st.lastLoc = p
	st.lastTime = m.now
	// The updated object is represented by its exact point for the rest of
	// the operation — including in the object index: its new position is
	// outside its old safe region by definition (that is why it reported), so
	// the old rectangle no longer lower-bounds its distances and would
	// mis-prune best-first searches.
	m.probedNow[id] = p
	st.safe = geom.RectAround(p)
	m.index.Update(id, st.safe)
	processed := make(map[query.ID]bool)
	for _, q := range m.grid.Affected(pLst, p) {
		processed[q.ID] = true
		m.reevaluate(q, st, pLst)
	}
	// Queries the object is currently a result of must be reevaluated even
	// when the quarantine test misses them (a result can sit outside a
	// quarantine circle that shrank after its safe region was granted).
	if set := m.resultOf[id]; len(set) > 0 {
		ids := make([]query.ID, 0, len(set))
		for qid := range set {
			if !processed[qid] {
				ids = append(ids, qid)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, qid := range ids {
			if q := m.queries[qid]; q != nil {
				m.reevaluate(q, st, pLst)
			}
		}
	}
	out := m.finishOp(st)
	if m.mobs != nil {
		m.mobs.done(m, "update", m.mobs.updSeconds, t0, before)
	}
	m.assertInvariants()
	return out
}

// reevaluate incrementally repairs one affected query after st moved from
// pLst to st.lastLoc, publishing the result if it changed.
func (m *Monitor) reevaluate(q *query.Query, st *objectState, pLst geom.Point) {
	var t0 time.Time
	if m.mobs != nil {
		t0 = time.Now() //lint:allow wallclock latency instrumentation, never in output
		m.mobs.lg.noteReeval(q)
	}
	m.stats.Reevaluations++
	before := append([]uint64(nil), q.Results...)
	switch q.Kind {
	case query.KindRange:
		m.reevalRange(q, st)
	case query.KindCircle:
		m.reevalCircle(q, st)
	case query.KindKNN:
		if q.OrderSensitive {
			m.reevalKNNSensitive(q, st, pLst)
		} else {
			m.reevalKNNInsensitive(q, st, pLst)
		}
		m.grid.Update(q) // the quarantine circle may have changed
	}
	if !q.ResultEquals(before) {
		m.publish(q)
	}
	if m.mobs != nil {
		m.mobs.tr.SpanTr("core", "reevaluate", m.opTrace, t0, "query", int64(q.ID), "kind", int64(q.Kind))
		m.mobs.lg.unfocus()
	}
}

// reevalRange is the trivial incremental maintenance of Section 4.3: the
// updated object joins the result when inside the rectangle and leaves it
// otherwise.
func (m *Monitor) reevalRange(q *query.Query, st *objectState) {
	in := q.Rect.Contains(st.lastLoc)
	was := q.InResult[st.id]
	switch {
	case in && !was:
		if m.mobs != nil {
			m.mobs.lg.noteEnter(q)
		}
		m.appendResultID(q, st.id, -1)
	case !in && was:
		if m.mobs != nil {
			m.mobs.lg.noteExit(q)
		}
		m.removeResultID(q, st.id)
	}
}

// reevalCircle maintains a circular range query exactly like a rectangular
// one: membership flips when the updated object crosses the fixed circle.
func (m *Monitor) reevalCircle(q *query.Query, st *objectState) {
	in := q.Circle().Contains(st.lastLoc)
	was := q.InResult[st.id]
	switch {
	case in && !was:
		if m.mobs != nil {
			m.mobs.lg.noteEnter(q)
		}
		m.appendResultID(q, st.id, -1)
	case !in && was:
		if m.mobs != nil {
			m.mobs.lg.noteExit(q)
		}
		m.removeResultID(q, st.id)
	}
}

// reevalKNNSensitive implements the three cases of Section 4.3 for
// order-sensitive kNN queries; each needs at most one probe. Inconsistent
// states (possible under communication delays) fall back to a from-scratch
// reevaluation.
func (m *Monitor) reevalKNNSensitive(q *query.Query, st *objectState, pLst geom.Point) {
	p := st.lastLoc
	inNew := q.InQuarantine(p)
	inOld := q.QuarantineCircle().Contains(pLst)
	was := q.InResult[st.id]
	switch {
	case !inNew:
		// Case 1: the object left (or is outside) the quarantine area. The
		// inOld test is deliberately dropped: the reverse result index routes
		// result objects here even when their previous report was already
		// outside a quarantine that shrank in the meantime.
		if !was {
			return
		}
		m.noteKNNCase(q, 1)
		m.removeResultID(q, st.id)
		m.refillKNN(q)
	case inNew && !inOld:
		// Case 2: the object entered the quarantine area; it displaces the
		// current k-th NN.
		m.noteKNNCase(q, 2)
		if was || len(q.Results) < q.K {
			m.fullReevalKNN(q)
			return
		}
		m.insertIntoOrder(q, st)
		// Drop the (k+1)-th of the extended sequence — the old k-th NN, or the
		// entering object itself when it ranks last — and place the new
		// quarantine radius between the new k-th and the dropped object
		// (Section 4.3, case 2).
		dropped := q.Results[len(q.Results)-1]
		m.removeResultID(q, dropped)
		droppedMin, _ := m.bounds(q.Point, dropped)
		_, newMax := m.bounds(q.Point, q.Results[len(q.Results)-1])
		// A probe in insertIntoOrder can find a result outside its safe
		// region (its own update still queued behind this operation): beyond
		// the old circle or past the dropped object. The order is then not
		// known, and a circle grown to that result would cover non-results'
		// safe regions without a search.
		if newMax > q.QRadius || newMax > droppedMin {
			m.fullReevalKNN(q)
			return
		}
		if r := m.quarantineRadius(newMax, droppedMin); r < q.QRadius {
			q.QRadius = r
		}
	case inNew && inOld:
		// Case 3: movement inside the quarantine area may reorder results.
		m.noteKNNCase(q, 3)
		if !was {
			m.fullReevalKNN(q)
			return
		}
		m.removeResultID(q, st.id)
		m.insertIntoOrder(q, st)
		// The quarantine radius does not change in this case (Section 4.3).
	}
}

// reevalKNNInsensitive handles set-semantics kNN queries: only the enter and
// leave cases exist (Section 4.3).
func (m *Monitor) reevalKNNInsensitive(q *query.Query, st *objectState, pLst geom.Point) {
	p := st.lastLoc
	inNew := q.InQuarantine(p)
	inOld := q.QuarantineCircle().Contains(pLst)
	switch {
	case !inNew:
		if !q.InResult[st.id] {
			return
		}
		m.removeResultID(q, st.id)
		m.refillKNN(q)
	case inNew && !inOld:
		// Without a maintained order there is no cheap displacement: the
		// paper reevaluates the query as if it were new.
		m.fullReevalKNN(q)
	default:
		// Both inside. A result moving within the quarantine cannot change a
		// set-semantics answer; a non-result inside the quarantine is an
		// inconsistency (e.g. the circle grew over it after a refill) and is
		// repaired from scratch.
		if !q.InResult[st.id] {
			m.fullReevalKNN(q)
		}
	}
}

// insertIntoOrder places the updated object (represented by its exact point)
// into the strictly ordered result sequence o_1 … o_k of an order-sensitive
// kNN query. Because the distance intervals [δ_i, Δ_i] are chained, d(q, p)
// falls either strictly between two objects' intervals (direct insertion) or
// inside exactly one interval, in which case that single object is probed
// (Figure 4.1(b)); at most one probe is needed.
func (m *Monitor) insertIntoOrder(q *query.Query, st *objectState) {
	d := q.Point.Dist(st.lastLoc)
	pos := len(q.Results)
	for i := 0; i < len(q.Results); i++ {
		oid := q.Results[i]
		lo, hi := m.bounds(q.Point, oid)
		if d < lo {
			pos = i
			break
		}
		if d > hi {
			continue
		}
		// Ambiguous against o_i: a virtual probe may separate them before a
		// real probe is needed (Section 6.1).
		if m.virtualProbe(oid) {
			lo, hi = m.bounds(q.Point, oid)
			if d < lo {
				pos = i
				break
			}
			if d > hi {
				continue
			}
		}
		op := m.probe(oid)
		if d < q.Point.Dist(op) {
			pos = i
		} else {
			pos = i + 1
		}
		break
	}
	m.appendResultID(q, st.id, pos)
}

// refillKNN finds a replacement k-th NN after a result left the quarantine
// area (case 1): a constrained 1NN search excluding the remaining results
// (the departed object itself stays a candidate), then a fresh quarantine
// radius from the search's frontier.
func (m *Monitor) refillKNN(q *query.Query) {
	exclude := make(map[uint64]bool, len(q.Results))
	for _, id := range q.Results {
		exclude[id] = true
	}
	winner, maxK, nextMin, ok := m.constrained1NN(q.Point, exclude)
	if ok {
		m.appendResultID(q, winner, -1)
		q.QRadius = m.quarantineRadius(maxK, nextMin)
		return
	}
	// Fewer objects than k remain: the quarantine covers everything.
	maxD := 0.0
	if n := len(q.Results); n > 0 {
		_, maxD = m.bounds(q.Point, q.Results[n-1])
	}
	q.QRadius = m.quarantineRadius(maxD, noNextElement)
}

// fullReevalKNN reevaluates a kNN query from scratch (still with lazy
// probes), used by the order-insensitive enter case and as the fallback for
// inconsistent incremental states.
func (m *Monitor) fullReevalKNN(q *query.Query) {
	m.stats.FullReevals++
	if m.mobs != nil {
		m.mobs.lg.noteFullReeval(q)
	}
	m.evalKNN(q)
}

// infinitePoint is a pLst placeholder for objects that did not previously
// exist (registration): it is outside every quarantine area.
func infinitePoint() geom.Point {
	return geom.Point{X: math.Inf(1), Y: math.Inf(1)}
}
