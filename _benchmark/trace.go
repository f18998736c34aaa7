package main

import (
	"time"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/rtree"
)

// spanKind names a layer boundary the traced run records.
type spanKind uint8

const (
	spDecode     spanKind = iota // wire.Codec.Recv of one client frame
	spEncode                     // wire.Codec.Send of one server frame
	spJournal                    // Journal.Begin → Journal.Commit, around the monitor op
	spUpdate                     // Monitor.Update, or one pipeline update before(i) → emit(i)
	spRegister                   // Monitor.Register*
	spDeregister                 // Monitor.Deregister
	spPipeline                   // Pipeline.ApplyEachCtx
	spPlan                       // pipeline entry → first before: the parallel plan phase
	spProbe                      // the prober callback
	spIdxInsert                  // ObjIndex.Insert
	spIdxDelete                  // ObjIndex.Delete
	spIdxUpdate                  // ObjIndex.Update
	spIdxGet                     // ObjIndex.Get
	spIdxLen                     // ObjIndex.Len
	spIdxCollect                 // ObjIndex.Collect
	spIdxSeeds                   // ObjIndex.Seeds: one best-first search
	spIdxVisit                   // ObjIndex.Visit
	spSnapSave                   // Monitor.SaveSnapshot
	spSnapLoad                   // Monitor.LoadSnapshot
	spReplay                     // core.ReplayJournal
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"wire.decode", "wire.encode", "journal", "monitor.update", "monitor.register",
	"monitor.deregister", "pipeline", "pipeline.plan", "probe",
	"index.insert", "index.delete", "index.update", "index.get", "index.len",
	"index.collect", "index.seeds", "index.visit",
	"snapshot.save", "recovery.load", "recovery.replay",
}

func (k spanKind) isIndex() bool { return k >= spIdxInsert && k <= spIdxVisit }

// span is one recorded interval; times are ns since the tracer's base.
type span struct {
	start, end int64
	parent     int32 // index of the enclosing span, -1 at top level
	kind       spanKind
	items      int32 // ObjIndex.Collect: items returned
}

// tracer records spans in memory from the benchmark's own call sites. A nil
// tracer, or one switched off, records nothing; every call site goes through
// it unconditionally so the traced and untraced runs execute the same code
// apart from the clock reads.
type tracer struct {
	on     bool
	inPlan bool // inside the pipeline's parallel plan phase
	base   time.Time
	spans  []span
	stack  []int32
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<20)}
}

func (t *tracer) begin(k spanKind) int32 {
	if t == nil || !t.on {
		return -1
	}
	if t.inPlan {
		// The plan phase runs on the pipeline's worker goroutines; the
		// tracer is single-threaded, so a layer call there must not be
		// recorded silently.
		panic("benchmark: " + spanNames[k] + " called during the pipeline plan phase")
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.base)), parent: parent, kind: k})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTotals aggregates spans per kind.
type layerTotals struct {
	count [numSpanKinds]int64
	total [numSpanKinds]int64 // ns
	self  [numSpanKinds]int64 // ns: span minus the spans directly inside it
	items [numSpanKinds]int64

	// Index calls made inside a monitor update, and pipeline updates.
	idxInUpdate     int64
	pipeUpdates     int64
	pipeUpdateTotal int64
}

func (t *tracer) totals() layerTotals {
	var lt layerTotals
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		lt.count[s.kind]++
		lt.total[s.kind] += d
		lt.self[s.kind] += d - child[i]
		lt.items[s.kind] += int64(s.items)
		if s.kind.isIndex() && t.enclosing(s) == spUpdate {
			lt.idxInUpdate++
		}
		if s.kind == spUpdate && s.parent >= 0 && t.spans[s.parent].kind == spPipeline {
			lt.pipeUpdates++
			lt.pipeUpdateTotal += d
		}
	}
	return lt
}

// enclosing returns the kind of the nearest monitor-op ancestor of s.
func (t *tracer) enclosing(s *span) spanKind {
	for p := s.parent; p >= 0; p = t.spans[p].parent {
		switch k := t.spans[p].kind; k {
		case spUpdate, spRegister, spDeregister, spReplay, spSnapLoad:
			return k
		}
	}
	return numSpanKinds
}

// treeIndex is a core.ObjIndex over one public rtree.Tree, equivalent to
// the monitor's built-in single-tree index, so the traced run can wrap it.
type treeIndex struct{ t *rtree.Tree }

func newTreeIndex(opt core.Options) *treeIndex {
	return &treeIndex{t: rtree.NewWithCapacity(opt.WithDefaults().TreeCapacity)}
}

func (x *treeIndex) Insert(id uint64, r geom.Rect)   { x.t.Insert(id, r) }
func (x *treeIndex) Delete(id uint64) bool           { return x.t.Delete(id) }
func (x *treeIndex) Update(id uint64, r geom.Rect)   { x.t.Update(id, r) }
func (x *treeIndex) Get(id uint64) (geom.Rect, bool) { return x.t.Get(id) }
func (x *treeIndex) Len() int                        { return x.t.Len() }
func (x *treeIndex) CheckInvariants() error          { return x.t.CheckInvariants() }

func (x *treeIndex) Collect(q geom.Rect, dst []rtree.Item) []rtree.Item {
	x.t.Search(q, func(it rtree.Item) bool {
		dst = append(dst, it)
		return true
	})
	return dst
}

func (x *treeIndex) Seeds(yield func(shard int, root *rtree.Node)) {
	if x.t.Len() > 0 {
		yield(0, x.t.Root())
	}
}

func (x *treeIndex) Visit(_ int, n *rtree.Node, yield core.IndexVisitor) {
	core.ExpandNode(n, yield)
}

// tracedIndex is the ObjIndex decorator installed with Monitor.SetIndex in
// the traced run: it records a span around every call and changes nothing
// else.
type tracedIndex struct {
	inner core.ObjIndex
	tr    *tracer
}

func (x *tracedIndex) Insert(id uint64, r geom.Rect) {
	s := x.tr.begin(spIdxInsert)
	x.inner.Insert(id, r)
	x.tr.end(s)
}

func (x *tracedIndex) Delete(id uint64) bool {
	s := x.tr.begin(spIdxDelete)
	ok := x.inner.Delete(id)
	x.tr.end(s)
	return ok
}

func (x *tracedIndex) Update(id uint64, r geom.Rect) {
	s := x.tr.begin(spIdxUpdate)
	x.inner.Update(id, r)
	x.tr.end(s)
}

func (x *tracedIndex) Get(id uint64) (geom.Rect, bool) {
	s := x.tr.begin(spIdxGet)
	r, ok := x.inner.Get(id)
	x.tr.end(s)
	return r, ok
}

func (x *tracedIndex) Len() int {
	s := x.tr.begin(spIdxLen)
	n := x.inner.Len()
	x.tr.end(s)
	return n
}

func (x *tracedIndex) Collect(q geom.Rect, dst []rtree.Item) []rtree.Item {
	s := x.tr.begin(spIdxCollect)
	n0 := len(dst)
	dst = x.inner.Collect(q, dst)
	if s >= 0 {
		x.tr.spans[s].items = int32(len(dst) - n0)
	}
	x.tr.end(s)
	return dst
}

func (x *tracedIndex) Seeds(yield func(shard int, root *rtree.Node)) {
	s := x.tr.begin(spIdxSeeds)
	x.inner.Seeds(yield)
	x.tr.end(s)
}

func (x *tracedIndex) Visit(shard int, n *rtree.Node, yield core.IndexVisitor) {
	s := x.tr.begin(spIdxVisit)
	x.inner.Visit(shard, n, yield)
	x.tr.end(s)
}

func (x *tracedIndex) CheckInvariants() error { return x.inner.CheckInvariants() }
