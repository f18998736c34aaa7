package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"unsafe"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/parallel"
	"srb/internal/query"
	"srb/internal/shard"
)

// The update phase is measured in segments of segFixes GPS fixes and its
// timings are reported as medians over segments, so a burst of interference
// from outside the process moves a few segments, not the result.
// Registration latencies are grouped the same way in chunks of regChunk
// samples, enough for a p99 with ten samples beyond it.
const (
	segFixes = 10
	regChunk = 1000
)

// oracleChecks is about how many fixes of a run are checked against the
// oracle; oracleQueries bounds the queries compared at one such fix, taken
// in rotation. The last fix and the end of the run check every query.
const (
	oracleChecks  = 40
	oracleQueries = 64
)

// counts are the run's exact work counts. For one seed they must repeat
// from run to run and between the traced and the untraced run.
type counts struct {
	Fixes, Updates, Registers, Deregisters int64
	DueHash                                uint64 // FNV-1a over every fix's due IDs
	Stats                                  core.Stats
	RunStats                               core.Stats // delta over the update phase
	FixStats                               core.Stats // delta over the fixes' timed sections
	UpdStats, RegStats                     core.Stats // RunStats split by op kind
	Pipeline                               parallel.Stats
	Migrations, Scatters, RegScatters      int64
	Strays                                 int
	JournalBytes, SnapshotBytes            int64
	UpdInBytes, UpdOutBytes                int64
	ReplayEntries                          int
}

// segment is one segFixes-long stretch of the update phase.
type segment struct {
	busyNS     int64
	updates    int64
	ack0, ack1 int // its samples in passResult.ackNS
}

// passResult is everything one pass measures.
type passResult struct {
	setupNS   []int64 // per set-up repetition
	ackNS     []int64 // per update: fix instant → last grant encoded
	regNS     []int64 // per registration: decode → reply encoded
	segs      []segment
	busyNS    int64   // server busy time over the update phase
	simT      float64 // simulated time units of the update phase
	genNS     int64   // generator + oracle time
	heapBytes int64   // live heap after the run, beyond the generator's and the driver's

	snapSaveNS       int64
	loadNS, replayNS []int64 // per recovery repetition

	gcPauseNS, allocBytes, allocObjs uint64

	c          counts
	attempted  int64
	failed     int64
	failures   []string
	oracleNext int // rotation point of the sampled oracle checks
	fix        int // current fix, for failure messages
	lt         *layerTotals
}

func (r *passResult) mismatch(format string, a ...interface{}) {
	r.failed++
	r.note(format, a...)
}

func (r *passResult) note(format string, a ...interface{}) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// passConfig sizes one pass.
type passConfig struct {
	fixes       int
	setupReps   int // timed set-ups; setup_s is their median
	recoverReps int // recoveries; recover_s is the median
	traced      bool
	workDir     string // existing directory for journal and snapshot files
}

// runPass replays one workload end to end: the set-ups, the update phase
// with a snapshot four fifths in, then recovery from that snapshot and the
// journal after it.
func runPass(w workload, seed int64, pc passConfig) (*passResult, error) {
	dir, err := os.MkdirTemp(pc.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &passResult{}
	var tr *tracer
	if pc.traced {
		tr = newTracer()
	}

	wd := newWorld(w, seed)
	qg := newQueryGen(w, seed)
	initial := qg.initial()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseHeap := int64(ms.HeapAlloc)

	// Set-up: AddObject × N and the initial registrations, through the
	// frame path. The first set-up is a warm-up that also sizes the
	// server's own live heap for gcPercent; the last early one is kept as
	// the live server. The rest of the repetitions come after recovery, so
	// setup_s is a median over the whole run, not over one stretch of it.
	early := (pc.setupReps + 1) / 2
	pos0 := append([]geom.Point(nil), wd.pos...)
	jpath := filepath.Join(dir, "run.journal")
	var s *server
	var initRes [][]uint64
	for r := 0; r <= early; r++ {
		if s != nil {
			s.close()
			s = nil
		}
		var ns int64
		s, initRes, ns, err = setUp(w, wd.pos, initial, jpath, tr)
		if err != nil {
			return nil, err
		}
		if r > 0 {
			res.setupNS = append(res.setupNS, ns)
			continue
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		defer debug.SetGCPercent(debug.SetGCPercent(gcPercent(int64(ms.HeapAlloc)-baseHeap, int64(ms.HeapAlloc))))
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	res.attempted += int64(w.n + len(initial))
	live := append([]querySpec(nil), initial...) // churn replaces the oldest
	for i, q := range initial {
		res.checkResult(s, q, initRes[i], wd)
	}
	if tr != nil {
		tr.on = true
	}

	// Update phase.
	snapAt := pc.fixes - pc.fixes/5
	snapPath := filepath.Join(dir, "snapshot")
	tailPath := filepath.Join(dir, "tail.journal")
	var snapSeq uint64
	var journalBytes int64
	oracleEvery := pc.fixes / oracleChecks
	if oracleEvery < 1 {
		oracleEvery = 1
	}
	stats0 := s.mon.Stats()
	var mig0, scat0 int64
	if s.forest != nil {
		mig0, scat0 = s.forest.Migrations(), s.forest.Scatters()
	}
	res.ackNS = make([]int64, 0, 1<<16)
	var due []uint64
	var regStats core.Stats
	churnQ := 0 // live[churnQ] is the oldest live query
	dueHash := uint64(14695981039346656037)
	seg := segment{}
	runtime.GC()
	for f := 1; f <= pc.fixes; f++ {
		res.fix = f
		g0 := nowNS()
		t := float64(f) * dt
		wd.advance(t)
		due = wd.due(s.granted, due)
		s.mon.SetTime(t)
		// The clients' frames for this fix, in the order the server takes
		// them: updates in ascending ID with the churn interleaved.
		type churnOp struct {
			after int // serve after this many of the fix's updates
			spec  querySpec
		}
		var churn []churnOp
		in0 := s.inN
		for i, id := range due {
			dueHash = fnv(dueHash, id)
			s.clientUpdate(id)
			n := res.c.Updates + int64(i) + 1
			if w.churnEvery > 0 && n%int64(w.churnEvery) == 0 && !w.pipeline {
				old := live[churnQ]
				spec := qg.make(old.kind)
				s.clientDeregister(old.id)
				s.clientRegister(spec)
				churn = append(churn, churnOp{after: i + 1, spec: spec})
				live[churnQ] = spec
				churnQ = (churnQ + 1) % len(live)
			}
		}
		dueHash = fnv(dueHash, 0)
		res.c.UpdInBytes += s.inN - in0
		res.genNS += nowNS() - g0

		// Allocation and GC counters cover the server's timed sections only,
		// not the clients' frame encoding or the oracle.
		runtime.ReadMemStats(&ms)
		gc0, alloc0, objs0 := ms.PauseTotalNs, ms.TotalAlloc, ms.Mallocs
		fst0 := s.mon.Stats()
		fixStart := nowNS()
		if s.pipe != nil && len(due) > 1 {
			out0 := s.outN
			s.burst(len(due), func(int) { res.ackNS = append(res.ackNS, nowNS()-fixStart) })
			res.c.UpdOutBytes += s.outN - out0
		} else {
			ci := 0
			for i := range due {
				out0 := s.outN
				s.update()
				res.c.UpdOutBytes += s.outN - out0
				res.ackNS = append(res.ackNS, nowNS()-fixStart)
				for ci < len(churn) && churn[ci].after == i+1 {
					st0 := s.mon.Stats()
					var sc0 int64
					if s.forest != nil {
						sc0 = s.forest.Scatters()
					}
					s.deregister()
					r0 := nowNS()
					s.register()
					res.regNS = append(res.regNS, nowNS()-r0)
					regStats = addStats(regStats, subStats(s.mon.Stats(), st0))
					if s.forest != nil {
						res.c.RegScatters += s.forest.Scatters() - sc0
					}
					ci++
				}
			}
		}
		busy := nowNS() - fixStart
		res.c.FixStats = addStats(res.c.FixStats, subStats(s.mon.Stats(), fst0))
		runtime.ReadMemStats(&ms)
		res.gcPauseNS += ms.PauseTotalNs - gc0
		res.allocBytes += ms.TotalAlloc - alloc0
		res.allocObjs += ms.Mallocs - objs0
		res.busyNS += busy
		res.c.Updates += int64(len(due))
		res.c.Registers += int64(len(churn))
		res.c.Deregisters += int64(len(churn))
		seg.busyNS += busy
		seg.updates += int64(len(due))
		if f%segFixes == 0 || f == pc.fixes {
			seg.ack1 = len(res.ackNS)
			res.segs = append(res.segs, seg)
			seg = segment{ack0: len(res.ackNS)}
		}

		// A churned-in query's own answer is exact only once the fix's
		// remaining updates are in, so each one is checked here.
		o0 := nowNS()
		for _, c := range churn {
			if got, ok := s.mon.Results(query.ID(c.spec.id)); ok {
				res.checkResult(s, c.spec, got, wd)
			}
		}
		if f%oracleEvery == 0 || f == pc.fixes {
			res.checkRegions(s, wd)
			n := oracleQueries
			if f == pc.fixes {
				n = len(live)
			}
			res.checkLive(s, live, wd, n)
		}
		res.genNS += nowNS() - o0

		// One-shot queries between fixes: register, answer, deregister.
		for j := 0; j < w.oneShots; j++ {
			spec := qg.make(qg.mixKind(int(res.c.Registers)))
			s.clientRegister(spec)
			s.clientDeregister(spec.id)
			st0 := s.mon.Stats()
			var sc0 int64
			if s.forest != nil {
				sc0 = s.forest.Scatters()
			}
			r0 := nowNS()
			rs, _ := s.register()
			res.regNS = append(res.regNS, nowNS()-r0)
			if s.forest != nil {
				res.c.RegScatters += s.forest.Scatters() - sc0
			}
			o0 := nowNS()
			res.checkResult(s, spec, rs, wd)
			res.genNS += nowNS() - o0
			s.deregister()
			regStats = addStats(regStats, subStats(s.mon.Stats(), st0))
			res.c.Registers++
			res.c.Deregisters++
		}

		if f == snapAt {
			// A periodic snapshot, taken between fixes; the journal
			// restarts after it.
			t0 := nowNS()
			sp := tr.begin(spSnapSave)
			n, err := saveSnapshot(s.mon, snapPath)
			tr.end(sp)
			res.snapSaveNS = nowNS() - t0
			if err != nil {
				return nil, err
			}
			res.c.SnapshotBytes = n
			snapSeq = s.jr.LastSeq()
			if fi, err := s.jf.Stat(); err == nil {
				journalBytes += fi.Size()
			}
			if err := s.openJournal(tailPath, snapSeq); err != nil {
				return nil, err
			}
		}
	}
	if fi, err := s.jf.Stat(); err == nil {
		journalBytes += fi.Size()
	}
	res.c.JournalBytes = journalBytes
	res.c.Fixes = int64(pc.fixes)
	res.c.DueHash = dueHash
	res.simT = float64(pc.fixes) * dt
	res.c.RunStats = subStats(s.mon.Stats(), stats0)
	if s.forest != nil {
		res.c.Migrations = s.forest.Migrations() - mig0
		res.c.Scatters = s.forest.Scatters() - scat0
		res.c.Strays = s.forest.Strays()
	}
	if s.pipe != nil {
		res.c.Pipeline = s.pipe.Stats()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.heapBytes = int64(ms.HeapAlloc) - baseHeap - res.driverBytes(s, due)

	// Recovery: the snapshot plus the journal after it, replayed into a
	// fresh monitor that must then equal the live one.
	if err := s.jf.Sync(); err != nil {
		return nil, err
	}
	for r := 0; r < pc.recoverReps; r++ {
		runtime.GC()
		rec, closeRec, err := recoverMonitor(w, tr, snapPath, tailPath, snapSeq, res)
		if err != nil {
			return nil, err
		}
		res.compareRecovered(s.mon, rec)
		closeRec()
	}
	res.attempted += int64(pc.recoverReps)

	res.c.RegStats = regStats
	res.c.UpdStats = subStats(res.c.RunStats, regStats)
	res.c.Stats = s.mon.Stats()
	res.attempted += res.c.Updates + res.c.Registers + res.c.Deregisters
	res.failed += s.nerr
	if s.err != nil {
		res.note("server: %d errors, first: %v", s.nerr, s.err)
	}

	// The late set-ups, from the same start positions and queries, with the
	// live server gone; each must answer the initial queries as the first
	// did.
	s.close()
	s = nil
	for r := early; r < pc.setupReps; r++ {
		ls, rs, ns, err := setUp(w, pos0, initial, jpath, nil)
		if err != nil {
			return nil, err
		}
		res.setupNS = append(res.setupNS, ns)
		res.attempted++
		if !reflect.DeepEqual(rs, initRes) {
			res.mismatch("set-up %d answered the initial queries differently from the first", r+1)
		}
		res.failed += ls.nerr
		if ls.err != nil {
			res.note("set-up %d: %d errors, first: %v", r+1, ls.nerr, ls.err)
		}
		ls.close()
	}
	// baseHeap and gcPercent count the generator's heap, so it stays live
	// to the end.
	runtime.KeepAlive(wd)
	if tr != nil {
		tr.on = false
		lt := tr.totals()
		res.lt = &lt
	}
	return res, nil
}

// setUp builds a server and serves a hello frame per object at pos and the
// initial registrations; it returns the server, the registrations' results
// and the server's time for them, measured from a settled heap.
func setUp(w workload, pos []geom.Point, initial []querySpec, jpath string, tr *tracer) (*server, [][]uint64, int64, error) {
	s, err := newServer(w, pos, jpath, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	for id := uint64(1); id <= uint64(w.n); id++ {
		s.clientHello(id)
	}
	for _, q := range initial {
		s.clientRegister(q)
	}
	results := make([][]uint64, 0, len(initial))
	runtime.GC()
	t0 := nowNS()
	for i := 0; i < w.n; i++ {
		s.hello()
	}
	for range initial {
		rs, _ := s.register()
		results = append(results, rs)
	}
	return s, results, nowNS() - t0, nil
}

// driverBytes is the benchmark's own bookkeeping that is still live when
// heap_mb is read: the latency samples, the segments, the due list, the
// regions the clients hold and the inbound frame buffer. heap_mb leaves it
// out so that it follows the server's memory, not the update count.
func (r *passResult) driverBytes(s *server, due []uint64) int64 {
	return int64(cap(r.ackNS)+cap(r.regNS)+cap(due))*8 +
		int64(cap(r.segs))*int64(unsafe.Sizeof(segment{})) +
		int64(cap(s.granted))*int64(unsafe.Sizeof(geom.Rect{})) +
		int64(cap(s.in.b))
}

// gcPercent returns the GOGC setting that gives the server's own live heap
// the default 100% headroom although the process also holds the
// generator's heap: the walkers' RNG state is about 5 KB per object and
// pointer-free, so the collector barely scans it, but at GOGC 100 it would
// make collections several times rarer than in srb-server.
func gcPercent(serverLive, totalLive int64) int {
	if serverLive <= 0 || totalLive <= 0 {
		return 100
	}
	p := int(100 * serverLive / totalLive)
	if p < 1 {
		p = 1
	}
	return p
}

func saveSnapshot(m *core.Monitor, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	if err := m.SaveSnapshot(w); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return fi.Size(), f.Close()
}

// recoverMonitor builds a monitor with the live one's index configuration
// and restores it from the snapshot and the journal after it. The traced
// run records the load and the replay as whole spans; the index decorator
// stays on the live monitor, so index metrics describe the live path.
func recoverMonitor(w workload, tr *tracer, snapPath, jPath string, snapSeq uint64, res *passResult) (*core.Monitor, func(), error) {
	opt := core.Options{GridM: 50}
	var replayErr error
	m := core.New(opt, core.ProberFunc(func(id uint64) geom.Point {
		replayErr = fmt.Errorf("recovered monitor probed object %d outside replay", id)
		return geom.Point{}
	}), nil)
	closeFn := func() {}
	var idx core.ObjIndex
	if w.forest {
		f := shard.NewForest(opt, runtime.GOMAXPROCS(0))
		idx, closeFn = f, f.Close
	}
	if idx != nil {
		if err := m.SetIndex(idx); err != nil {
			closeFn()
			return nil, nil, err
		}
	}
	sf, err := os.Open(snapPath)
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	defer sf.Close()
	jf, err := os.Open(jPath)
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	defer jf.Close()
	t0 := nowNS()
	sp := tr.begin(spSnapLoad)
	err = m.LoadSnapshot(bufio.NewReader(sf))
	tr.end(sp)
	t1 := nowNS()
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	sp = tr.begin(spReplay)
	rs, err := core.ReplayJournal(bufio.NewReader(jf), m, snapSeq)
	tr.end(sp)
	t2 := nowNS()
	res.loadNS = append(res.loadNS, t1-t0)
	res.replayNS = append(res.replayNS, t2-t1)
	res.c.ReplayEntries = rs.Entries
	if err == nil {
		err = replayErr
	}
	if err == nil && rs.Torn {
		err = fmt.Errorf("journal replay found a torn line")
	}
	if err != nil {
		res.mismatch("recovery: %v", err)
	}
	return m, closeFn, nil
}

// checkResult compares a query's monitored result with the oracle.
func (r *passResult) checkResult(s *server, q querySpec, got []uint64, wd *world) {
	r.attempted++
	want := wd.oracle(q)
	switch q.kind {
	case qKNN:
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			var dg, dw []float64
			for _, id := range got {
				dg = append(dg, q.pt.Dist(wd.pos[id-1]))
			}
			for _, id := range want {
				dw = append(dw, q.pt.Dist(wd.pos[id-1]))
			}
			r.mismatch("fix %d: kNN query %d (k=%d at %v): monitor %v at distances %v, oracle %v at %v",
				r.fix, q.id, q.k, q.pt, got, dg, want, dw)
		}
	case qCount:
		if mon, ok := s.mon.Results(query.ID(q.id)); !ok || len(mon) != len(want) {
			r.mismatch("fix %d: COUNT query %d: monitor %d, oracle %d", r.fix, q.id, len(mon), len(want))
		}
	default:
		if !sameSet(got, want) {
			r.mismatch("fix %d: query %d (kind %d): monitor %v, oracle %v", r.fix, q.id, q.kind, got, want)
		}
	}
}

// checkRegions checks the protocol at the end of an oracle fix: every
// client holds the safe region the monitor has on file, and is inside it.
func (r *passResult) checkRegions(s *server, wd *world) {
	r.attempted++
	bad := 0
	var first uint64
	for i, g := range s.granted {
		id := uint64(i + 1)
		sr, ok := s.mon.SafeRegion(id)
		if !ok || sr != g || !g.Contains(wd.pos[i]) {
			if bad == 0 {
				first = id
			}
			bad++
		}
	}
	if bad > 0 {
		r.mismatch("fix %d: %d clients hold a region the monitor does not (first: object %d)", r.fix, bad, first)
	}
}

// checkLive compares n live queries with the oracle, continuing the
// rotation from the previous check.
func (r *passResult) checkLive(s *server, live []querySpec, wd *world, n int) {
	if n > len(live) {
		n = len(live)
	}
	for i := 0; i < n; i++ {
		lq := live[r.oracleNext%len(live)]
		r.oracleNext++
		got, ok := s.mon.Results(query.ID(lq.id))
		if !ok {
			r.attempted++
			r.mismatch("query %d not registered", lq.id)
			continue
		}
		r.checkResult(s, lq, got, wd)
	}
}

func sameSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	a = append([]uint64(nil), a...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	for i := range a {
		if a[i] != b[i] { // the oracle lists IDs in ascending order
			return false
		}
	}
	return true
}

// compareRecovered checks that recovery reproduced the live monitor: Stats,
// every query's result, and every object's safe region.
func (r *passResult) compareRecovered(live, rec *core.Monitor) {
	r.attempted++
	if live.Stats() != rec.Stats() {
		r.mismatch("recovered Stats %+v != live %+v", rec.Stats(), live.Stats())
	}
	r.attempted++
	lq, rq := live.QueryIDs(), rec.QueryIDs()
	if !reflect.DeepEqual(lq, rq) {
		r.mismatch("recovered queries %v != live %v", rq, lq)
	}
	for _, id := range lq {
		r.attempted++
		a, _ := live.Results(id)
		b, _ := rec.Results(id)
		if !reflect.DeepEqual(a, b) {
			r.mismatch("recovered query %d results %v != live %v", id, b, a)
		}
	}
	r.attempted++
	ids := live.ObjectIDs()
	if !reflect.DeepEqual(ids, rec.ObjectIDs()) {
		r.mismatch("recovered object set differs")
		return
	}
	diff := 0
	for _, id := range ids {
		a, _ := live.SafeRegion(id)
		b, _ := rec.SafeRegion(id)
		if a != b {
			diff++
		}
	}
	if diff > 0 {
		r.mismatch("%d recovered safe regions differ from the live ones", diff)
	}
}

func fnv(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

func subStats(a, b core.Stats) core.Stats {
	return core.Stats{
		SourceUpdates:    a.SourceUpdates - b.SourceUpdates,
		Probes:           a.Probes - b.Probes,
		Reevaluations:    a.Reevaluations - b.Reevaluations,
		FullReevals:      a.FullReevals - b.FullReevals,
		NewQueryEvals:    a.NewQueryEvals - b.NewQueryEvals,
		SafeRegionsBuilt: a.SafeRegionsBuilt - b.SafeRegionsBuilt,
		ResultChanges:    a.ResultChanges - b.ResultChanges,
		ProbesAvoided:    a.ProbesAvoided - b.ProbesAvoided,
		VirtualProbes:    a.VirtualProbes - b.VirtualProbes,
	}
}

func addStats(a, b core.Stats) core.Stats {
	return subStats(a, subStats(core.Stats{}, b))
}
