package main

import (
	"math"
	"math/rand"
	"sort"

	"srb/internal/geom"
	"srb/internal/mobility"
)

// Every workload shares the mobility model and the clock: random-waypoint
// objects with mean speed 0.01 and srb-load's mean constant-movement period
// 0.1, reporting against GPS fixes every dt.
const (
	meanSpeed  = 0.01
	meanPeriod = 0.1
	dt         = 0.01
)

// workload is one benchmark configuration. Everything not named here is the
// srb-server default: GridM 50, no Section 6 enhancements, journaling on, a
// single R*-tree and the sequential update path.
type workload struct {
	name string
	n    int // moving objects

	// Initial query mix.
	knn, circle, rng, count int
	kMax                    int     // kNN k is drawn from [1, kMax]
	side                    float64 // range and COUNT rectangle side
	radius                  float64 // circle radius

	pipeline bool // each fix's burst goes through parallel.Pipeline (-workers nproc)
	forest   bool // the object index is a shard.Forest of nproc stripes (-shards nproc)

	// churnEvery > 0 deregisters the oldest live query and registers a new
	// one of the same kind after every churnEvery updates.
	churnEvery int
	// oneShots is the number of one-shot queries an application server
	// registers, reads and deregisters between two fixes, in the mix of the
	// standing queries. They give the registration latency its sample; a
	// churning workload draws that sample from the churn instead.
	oneShots int

	// fixesPerSecond sets the run length: --seconds × fixesPerSecond GPS
	// fixes. The length is a fixed amount of work, not a wall-clock budget,
	// so two builds replay exactly the same updates.
	fixesPerSecond float64
}

var workloads = []workload{
	{
		name: "knn-steady", n: 10000,
		knn: 60, circle: 10, kMax: 10, radius: 0.025,
		oneShots:       3,
		fixesPerSecond: 100,
	},
	{
		name: "range-burst", n: 20000,
		rng: 300, count: 100, side: 0.05,
		pipeline:       true,
		oneShots:       2,
		fixesPerSecond: 130,
	},
	{
		name: "churn-recover", n: 20000,
		knn: 20, rng: 20, circle: 10, kMax: 10, side: 0.05, radius: 0.025,
		forest:         true,
		churnEvery:     20,
		fixesPerSecond: 32,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// Query kinds as the benchmark generates them.
const (
	qKNN = iota
	qCircle
	qRange
	qCount
)

// querySpec is one generated query registration.
type querySpec struct {
	id     uint64
	kind   int
	pt     geom.Point // kNN point or circle centre
	k      int
	radius float64
	rect   geom.Rect
}

// queryGen draws query placements from the seed, one stream for the whole
// run, so initial queries, churn replacements and the registration tail are
// all fixed by --seed.
type queryGen struct {
	w    workload
	rng  *rand.Rand
	next uint64
}

func newQueryGen(w workload, seed int64) *queryGen {
	return &queryGen{w: w, rng: rand.New(rand.NewSource(seed*7919 + 17)), next: 1}
}

func (g *queryGen) make(kind int) querySpec {
	q := querySpec{id: g.next, kind: kind}
	g.next++
	switch kind {
	case qKNN:
		q.pt = geom.Pt(g.rng.Float64(), g.rng.Float64())
		q.k = 1 + g.rng.Intn(g.w.kMax)
	case qCircle:
		q.pt = geom.Pt(g.rng.Float64(), g.rng.Float64())
		q.radius = g.w.radius
	case qRange, qCount:
		x := g.rng.Float64() * (1 - g.w.side)
		y := g.rng.Float64() * (1 - g.w.side)
		q.rect = geom.Rect{MinX: x, MinY: y, MaxX: x + g.w.side, MaxY: y + g.w.side}
	}
	return q
}

// initial returns the workload's initial query mix, kinds interleaved so
// that registration order does not group one kind. Each kind's placements
// are stratified, one per cell of a grid over the space, and kNN k cycles
// through 1..kMax, so that a few dozen standing queries cost about the same
// from seed to seed.
func (g *queryGen) initial() []querySpec {
	counts := []int{g.w.knn, g.w.circle, g.w.rng, g.w.count}
	byKind := make([][]querySpec, len(counts))
	for kind, n := range counts {
		cells := int(math.Ceil(math.Sqrt(float64(n))))
		for i, c := range g.rng.Perm(cells * cells)[:n] {
			q := g.make(kind)
			// Move the placement into its stratum: cell c of a cells×cells
			// grid over the range the uniform draw covers.
			cx, cy := float64(c%cells), float64(c/cells)
			switch kind {
			case qKNN, qCircle:
				q.pt = geom.Pt((cx+q.pt.X)/float64(cells), (cy+q.pt.Y)/float64(cells))
				q.k = 1 + i%g.w.kMax
			case qRange, qCount:
				span := 1 - g.w.side
				x := (cx + q.rect.MinX/span) / float64(cells) * span
				y := (cy + q.rect.MinY/span) / float64(cells) * span
				q.rect = geom.Rect{MinX: x, MinY: y, MaxX: x + g.w.side, MaxY: y + g.w.side}
			}
			byKind[kind] = append(byKind[kind], q)
		}
	}
	var out []querySpec
	for i := 0; len(out) < counts[0]+counts[1]+counts[2]+counts[3]; i++ {
		for _, qs := range byKind {
			if i < len(qs) {
				out = append(out, qs[i])
			}
		}
	}
	return out
}

// mixKind picks the kind of the i-th one-shot query from the standing mix,
// in proportion.
func (g *queryGen) mixKind(i int) int {
	mix := []int{g.w.knn, g.w.circle, g.w.rng, g.w.count}
	total := 0
	for _, n := range mix {
		total += n
	}
	r := i % total
	for kind, n := range mix {
		if r < n {
			return kind
		}
		r -= n
	}
	return qKNN
}

// world is the generator: one waypoint walker per object and the true
// positions at the current fix. Objects have IDs 1..n; pos[id-1] is the
// position of object id.
type world struct {
	walkers []*mobility.Waypoint
	pos     []geom.Point
}

func newWorld(w workload, seed int64) *world {
	space := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	start := mobility.StartPositions(seed, w.n, space)
	wd := &world{walkers: make([]*mobility.Waypoint, w.n), pos: start}
	for i := range wd.walkers {
		wd.walkers[i] = mobility.NewWaypoint(seed, uint64(i+1), space, meanSpeed, meanPeriod, start[i])
	}
	return wd
}

// advance moves every object to its position at time t.
func (wd *world) advance(t float64) {
	for i, wk := range wd.walkers {
		wd.pos[i] = wk.At(t)
	}
}

// due appends, in ascending ID, the objects whose true position has left
// the region last granted to them.
func (wd *world) due(granted []geom.Rect, dst []uint64) []uint64 {
	dst = dst[:0]
	for i, p := range wd.pos {
		if !granted[i].Contains(p) {
			dst = append(dst, uint64(i+1))
		}
	}
	return dst
}

// oracle answers a query by brute force over the true positions.
func (wd *world) oracle(q querySpec) []uint64 {
	var out []uint64
	switch q.kind {
	case qRange, qCount:
		for i, p := range wd.pos {
			if q.rect.Contains(p) {
				out = append(out, uint64(i+1))
			}
		}
	case qCircle:
		for i, p := range wd.pos {
			if q.pt.Dist(p) <= q.radius {
				out = append(out, uint64(i+1))
			}
		}
	case qKNN:
		type nb struct {
			id uint64
			d  float64
		}
		best := make([]nb, 0, q.k+1)
		for i, p := range wd.pos {
			d := q.pt.Dist(p)
			if len(best) == q.k && d >= best[len(best)-1].d {
				continue
			}
			j := sort.Search(len(best), func(j int) bool { return best[j].d > d })
			best = append(best, nb{})
			copy(best[j+1:], best[j:])
			best[j] = nb{uint64(i + 1), d}
			if len(best) > q.k {
				best = best[:q.k]
			}
		}
		for _, b := range best {
			out = append(out, b.id)
		}
	}
	return out
}
