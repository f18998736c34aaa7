package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/parallel"
	"srb/internal/query"
	"srb/internal/shard"
	"srb/internal/wire"
)

// frameBuf is the in-memory link from the clients to the server: clients
// append encoded frames, the server's Codec reads them. Frames are only
// read when one is known to be buffered, so running dry is a benchmark bug.
type frameBuf struct {
	b   []byte
	off int
}

func (f *frameBuf) Write(p []byte) (int, error) {
	if f.off == len(f.b) {
		f.b, f.off = f.b[:0], 0
	}
	f.b = append(f.b, p...)
	return len(p), nil
}

func (f *frameBuf) Read(p []byte) (int, error) {
	if f.off == len(f.b) {
		return 0, errors.New("benchmark: server read past the buffered frames")
	}
	n := copy(p, f.b[f.off:])
	f.off += n
	return n, nil
}

// server replays srb-server's event loop in-process: frame decode, journal
// Begin, the monitor operation, journal Commit, grant frames encoded. It
// runs on one goroutine; only the pipeline's plan phase fans out.
type server struct {
	mon    *core.Monitor
	pipe   *parallel.Pipeline
	forest *shard.Forest
	jr     *core.Journal
	jf     *os.File
	in     frameBuf
	codec  *wire.Codec // server side: reads in, counts and drops its output
	client *wire.Codec // client side: encodes frames into in
	inN    int64       // client frame bytes encoded
	outN   int64       // server frame bytes encoded

	pos      []geom.Point // true positions at the current fix, by id-1
	granted  []geom.Rect  // the region each client last received
	watch    map[query.ID]bool
	curTrace uint64 // trace ID of the frame being served
	tr       *tracer
	trSeq    uint64
	err      error // first journal or protocol error
	nerr     int64 // journal and protocol errors
}

func newServer(w workload, pos []geom.Point, jpath string, tr *tracer) (*server, error) {
	s := &server{pos: pos, granted: make([]geom.Rect, w.n), watch: map[query.ID]bool{}, tr: tr}
	opt := core.Options{GridM: 50}
	s.mon = core.New(opt, core.ProberFunc(s.probe), s.onResults)
	var idx core.ObjIndex
	if w.forest {
		s.forest = shard.NewForest(opt, runtime.GOMAXPROCS(0))
		idx = s.forest
	} else if tr != nil {
		idx = newTreeIndex(opt)
	}
	if tr != nil {
		idx = &tracedIndex{inner: idx, tr: tr}
	}
	if idx != nil {
		if err := s.mon.SetIndex(idx); err != nil {
			s.close()
			return nil, err
		}
	}
	if w.pipeline {
		s.pipe = parallel.New(s.mon, runtime.GOMAXPROCS(0))
	}
	if err := s.openJournal(jpath, 0); err != nil {
		s.close()
		return nil, err
	}
	s.codec = wire.NewCodec(struct {
		io.Reader
		io.Writer
	}{&s.in, &countingWriter{w: io.Discard, n: &s.outN}})
	s.client = wire.NewCodec(struct {
		io.Reader
		io.Writer
	}{eofReader{}, &countingWriter{w: &s.in, n: &s.inN}})
	return s, nil
}

type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

type countingWriter struct {
	w io.Writer
	n *int64
}

func (c *countingWriter) Write(p []byte) (int, error) { *c.n += int64(len(p)); return c.w.Write(p) }

// openJournal starts a fresh journal file continuing after lastSeq.
func (s *server) openJournal(path string, lastSeq uint64) error {
	if s.jf != nil {
		if err := s.jf.Close(); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	s.jf = f
	s.jr = core.NewJournal(f, lastSeq)
	return nil
}

func (s *server) close() {
	if s.jf != nil {
		s.jf.Close()
		s.jf = nil
	}
	if s.forest != nil {
		s.forest.Close()
		s.forest = nil
	}
}

func (s *server) fail(err error) {
	if err == nil {
		return
	}
	s.nerr++
	if s.err == nil {
		s.err = err
	}
}

// probe answers a server-initiated probe from the fix's true positions and
// journals the answer, as srb-server's probe does.
func (s *server) probe(id uint64) geom.Point {
	sp := s.tr.begin(spProbe)
	p := s.pos[id-1]
	s.jr.NoteProbe(id, p)
	s.tr.end(sp)
	return p
}

// onResults pushes a changed result to the application server watching the
// query, as srb-server's onResults does. Every registered query is watched.
func (s *server) onResults(u core.ResultUpdate) {
	if s.watch[u.Query] {
		s.send(wire.Message{Type: wire.TResults, QID: uint64(u.Query), IDs: u.Results, Count: u.Count, Trace: s.curTrace})
	}
}

func (s *server) mint(id uint64) uint64 {
	s.trSeq++
	x := id*0x9e3779b97f4a7c15 + s.trSeq
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1
}

// sendClient encodes one client frame into the server's inbound buffer.
// It is the client's work and runs outside every timed section.
func (s *server) sendClient(m wire.Message) {
	s.fail(s.client.Send(m))
}

func (s *server) clientUpdate(id uint64) {
	m := wire.Message{Type: wire.TUpdate, Obj: id, Trace: s.mint(id)}
	m.SetPoint(s.pos[id-1])
	s.sendClient(m)
}

func (s *server) clientHello(id uint64) {
	m := wire.Message{Type: wire.THello, Obj: id, Trace: s.mint(id)}
	m.SetPoint(s.pos[id-1])
	s.sendClient(m)
}

func (s *server) clientRegister(q querySpec) {
	m := wire.Message{QID: q.id, Trace: s.mint(q.id)}
	switch q.kind {
	case qKNN:
		m.Type, m.K, m.Ordered = wire.TRegisterKNN, q.k, true
		m.SetPoint(q.pt)
	case qCircle:
		m.Type, m.Radius = wire.TRegisterCircle, q.radius
		m.SetPoint(q.pt)
	case qRange:
		m.Type = wire.TRegisterRange
		m.SetRect(q.rect)
	case qCount:
		m.Type = wire.TRegisterCount
		m.SetRect(q.rect)
	}
	s.sendClient(m)
}

func (s *server) clientDeregister(qid uint64) {
	s.sendClient(wire.Message{Type: wire.TDeregister, QID: qid, Trace: s.mint(qid)})
}

func (s *server) recv() wire.Message {
	sp := s.tr.begin(spDecode)
	m, err := s.codec.Recv()
	s.tr.end(sp)
	s.fail(err)
	return m
}

func (s *server) send(m wire.Message) {
	sp := s.tr.begin(spEncode)
	err := s.codec.Send(m)
	s.tr.end(sp)
	s.fail(err)
}

// dispatch encodes one region grant per refreshed safe region.
func (s *server) dispatch(ups []core.SafeRegionUpdate, tr uint64) {
	for _, u := range ups {
		m := wire.Message{Type: wire.TRegion, Obj: u.Object, Trace: tr}
		m.SetRect(u.Region)
		s.send(m)
		s.granted[u.Object-1] = u.Region
	}
}

func (s *server) commit() {
	s.fail(s.jr.Commit())
}

// hello serves one object registration frame.
func (s *server) hello() {
	m := s.recv()
	s.curTrace = m.Trace
	sj := s.tr.begin(spJournal)
	s.jr.Begin(core.JournalEntry{Op: core.JournalAdd, Obj: m.Obj, X: m.X, Y: m.Y})
	ups := s.mon.AddObject(m.Obj, m.Point())
	s.commit()
	s.tr.end(sj)
	s.dispatch(ups, m.Trace)
	s.curTrace = 0
}

// update serves one location update frame on the sequential path.
func (s *server) update() {
	m := s.recv()
	s.curTrace = m.Trace
	sj := s.tr.begin(spJournal)
	s.jr.Begin(core.JournalEntry{Op: core.JournalUpdate, Obj: m.Obj, X: m.X, Y: m.Y})
	su := s.tr.begin(spUpdate)
	ups := s.mon.Update(m.Obj, m.Point())
	s.tr.end(su)
	s.commit()
	s.tr.end(sj)
	s.dispatch(ups, m.Trace)
	s.curTrace = 0
}

// burst serves n buffered update frames as one coalesced batch through the
// pipeline, as srb-server's -workers path does; ack(i) runs once update i's
// grants are encoded.
func (s *server) burst(n int, ack func(i int)) {
	msgs := make([]wire.Message, n)
	for i := range msgs {
		msgs[i] = s.recv()
	}
	je := core.JournalEntry{Op: core.JournalBatch, Batch: make([]core.BatchedUpdate, n)}
	batch := make([]parallel.Update, n)
	for i, m := range msgs {
		je.Batch[i] = core.BatchedUpdate{Obj: m.Obj, X: m.X, Y: m.Y}
		batch[i] = parallel.Update{ID: m.Obj, Loc: m.Point()}
	}
	sj := s.tr.begin(spJournal)
	s.jr.Begin(je)
	sp := s.tr.begin(spPipeline)
	plan := s.tr.begin(spPlan)
	if plan >= 0 {
		s.tr.inPlan = true
	}
	cur := int32(-1)
	s.pipe.ApplyEachCtx(batch,
		func(i int) {
			if plan >= 0 {
				s.tr.inPlan = false
				s.tr.end(plan)
				plan = -1
			}
			s.curTrace = msgs[i].Trace
			cur = s.tr.begin(spUpdate)
		},
		func(i int, ups []core.SafeRegionUpdate) {
			s.tr.end(cur)
			s.dispatch(ups, msgs[i].Trace)
			ack(i)
		})
	s.curTrace = 0
	s.tr.end(sp)
	s.commit()
	s.tr.end(sj)
}

// register serves one query registration frame and answers it.
func (s *server) register() (results []uint64, count int) {
	m := s.recv()
	qid := query.ID(m.QID)
	e := core.JournalEntry{Op: core.JournalRegister, QID: m.QID}
	switch m.Type {
	case wire.TRegisterRange:
		e.Kind = core.KindRange
		e.MinX, e.MinY, e.MaxX, e.MaxY = m.MinX, m.MinY, m.MaxX, m.MaxY
	case wire.TRegisterCount:
		e.Kind = core.KindCount
		e.MinX, e.MinY, e.MaxX, e.MaxY = m.MinX, m.MinY, m.MaxX, m.MaxY
	case wire.TRegisterCircle:
		e.Kind = core.KindCircle
		e.X, e.Y, e.Radius = m.X, m.Y, m.Radius
	case wire.TRegisterKNN:
		e.Kind = core.KindKNN
		e.X, e.Y, e.K, e.Ordered = m.X, m.Y, m.K, m.Ordered
	}
	s.curTrace = m.Trace
	defer func() { s.curTrace = 0 }()
	sj := s.tr.begin(spJournal)
	s.jr.Begin(e)
	sr := s.tr.begin(spRegister)
	var ups []core.SafeRegionUpdate
	var err error
	switch m.Type {
	case wire.TRegisterRange:
		results, ups, err = s.mon.RegisterRange(qid, m.Rect())
		count = len(results)
	case wire.TRegisterCount:
		count, ups, err = s.mon.RegisterCount(qid, m.Rect())
	case wire.TRegisterCircle:
		results, ups, err = s.mon.RegisterWithinDistance(qid, m.Point(), m.Radius)
		count = len(results)
	case wire.TRegisterKNN:
		results, ups, err = s.mon.RegisterKNN(qid, m.Point(), m.K, m.Ordered)
		count = len(results)
	default:
		err = fmt.Errorf("unexpected frame %q", m.Type)
	}
	s.tr.end(sr)
	if err != nil {
		s.jr.Abort()
		s.tr.end(sj)
		s.fail(fmt.Errorf("register query %d: %w", m.QID, err))
		s.send(wire.Message{Type: wire.TError, QID: m.QID, Err: err.Error(), Trace: m.Trace})
		return nil, 0
	}
	s.commit()
	s.tr.end(sj)
	s.watch[qid] = true
	s.dispatch(ups, m.Trace)
	s.send(wire.Message{Type: wire.TResults, QID: m.QID, IDs: results, Count: count, Trace: m.Trace})
	return results, count
}

// deregister serves one query removal frame.
func (s *server) deregister() {
	m := s.recv()
	s.curTrace = m.Trace
	sj := s.tr.begin(spJournal)
	s.jr.Begin(core.JournalEntry{Op: core.JournalDeregister, QID: m.QID})
	sd := s.tr.begin(spDeregister)
	s.mon.Deregister(query.ID(m.QID))
	s.tr.end(sd)
	s.commit()
	s.tr.end(sj)
	delete(s.watch, query.ID(m.QID))
	s.curTrace = 0
}

// nowNS is the benchmark clock, ns since start.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }
