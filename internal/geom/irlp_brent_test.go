package geom

import (
	"math"
	"math/rand"
	"testing"
)

// This file checks the Brent θ search of optimizeTheta against the search it
// replaced: 48 rounds of ternary search with two fresh evaluations each. The
// Ir-lp constructions call optimizeTheta directly (a swappable search would
// put a closure and a variadic slice on the heap in every call), so the
// reference runs through test copies of the three constructions that take
// the search as a parameter. Run with optimizeTheta, each copy must return
// exactly what the production function returns, which keeps the copies
// faithful.

type thetaSearch func(lo, hi float64, mk func(float64) Rect, obj Objective, analytic ...float64) (Rect, float64, bool)

// ternaryTheta is the θ search used before Brent's method: endpoints and
// analytic candidates, then 48 ternary rounds, then the final midpoint.
func ternaryTheta(lo, hi float64, mk func(float64) Rect, obj Objective, analytic ...float64) (Rect, float64, bool) {
	if lo > hi {
		return Rect{}, 0, false
	}
	best := mk(lo)
	bestScore := obj(best)
	try := func(theta float64) {
		r := mk(theta)
		if s := obj(r); s > bestScore {
			best, bestScore = r, s
		}
	}
	try(hi)
	for _, a := range analytic {
		if a > lo && a < hi {
			try(a)
		}
	}
	a, b := lo, hi
	for i := 0; i < 48 && b-a > 1e-12; i++ {
		m1 := a + (b-a)/3
		m2 := b - (b-a)/3
		if obj(mk(m1)) < obj(mk(m2)) {
			a = m1
		} else {
			b = m2
		}
	}
	try((a + b) / 2)
	return best, bestScore, true
}

// refIrlpCircle is IrlpCircle with the θ search as a parameter.
func refIrlpCircle(c Circle, p Point, cell Rect, obj Objective, search thetaSearch) Rect {
	if c.R <= 0 || !c.Contains(p) {
		return RectAround(p).Intersect(cell)
	}
	rf := canonicalize(c.Center, p)
	q := c.Center
	dx, dy := canonicalOffset(q, p)
	thetaLo := math.Asin(clamp(dx/c.R, 0, 1))
	thetaHi := math.Acos(clamp(dy/c.R, 0, 1))
	mk := func(theta float64) Rect {
		hw := c.R * math.Sin(theta)
		hh := c.R * math.Cos(theta)
		return Rect{q.X - hw, q.Y - hh, q.X + hw, q.Y + hh}
	}
	best, _, ok := search(thetaLo, thetaHi, mk, objReflected(obj, rf, p), math.Pi/4)
	if !ok {
		return RectAround(p).Intersect(cell)
	}
	return ensureContains(rf.rect(best).Intersect(cell), p, cell)
}

// refIrlpCircleComplement is IrlpCircleComplement with the θ search as a
// parameter.
func refIrlpCircleComplement(c Circle, p Point, cell Rect, obj Objective, search thetaSearch) Rect {
	if !c.IntersectsRect(cell) {
		return cell
	}
	if c.Contains(p) {
		return RectAround(p).Intersect(cell)
	}
	e := cell.Union(c.BBox())
	rf := canonicalize(c.Center, p)
	cp := rf.point(p)
	ce := rf.rect(e)
	q := c.Center
	dx, dy := canonicalOffset(q, p)
	t := Point{ce.MaxX, ce.MaxY}
	best := RectAround(cp)
	robj := objReflected(obj, rf, p)
	bestScore := robj(best)
	consider := func(r Rect) {
		if s := robj(r); s > bestScore {
			best, bestScore = r, s
		}
	}
	thetaX := math.Pi / 2
	if dx < c.R {
		thetaX = math.Asin(clamp(dx/c.R, 0, 1))
	}
	thetaY := 0.0
	if dy < c.R {
		thetaY = math.Acos(clamp(dy/c.R, 0, 1))
	}
	if thetaY <= thetaX {
		mk := func(theta float64) Rect {
			return R(q.X+c.R*math.Sin(theta), q.Y+c.R*math.Cos(theta), t.X, t.Y)
		}
		if r, _, ok := search(thetaY, thetaX, mk, robj, math.Pi/4); ok {
			consider(r)
		}
	}
	if dy >= c.R {
		consider(Rect{ce.MinX, q.Y + c.R, ce.MaxX, ce.MaxY})
	}
	if dx >= c.R {
		consider(Rect{q.X + c.R, ce.MinY, ce.MaxX, ce.MaxY})
	}
	return ensureContains(rf.rect(best).Intersect(cell), p, cell)
}

// refIrlpRing is IrlpRing with the θ search as a parameter.
func refIrlpRing(rg Ring, p Point, cell Rect, obj Objective, search thetaSearch) Rect {
	if rg.Inner <= 0 {
		return refIrlpCircle(Circle{rg.Center, rg.Outer}, p, cell, obj, search)
	}
	if !rg.Contains(p) {
		return RectAround(p).Intersect(cell)
	}
	rf := canonicalize(rg.Center, p)
	cp := rf.point(p)
	q := rg.Center
	dx, dy := canonicalOffset(q, p)
	rr, RR := rg.Inner, rg.Outer
	best := RectAround(cp)
	robj := objReflected(obj, rf, p)
	bestScore := robj(best)
	consider := func(r Rect) {
		if s := robj(r); s > bestScore {
			best, bestScore = r, s
		}
	}
	thetaLo := math.Asin(clamp(dx/RR, 0, 1))
	thetaHi := math.Acos(clamp(dy/RR, 0, 1))
	if dy*dy >= rr*rr && thetaLo <= thetaHi {
		mk := func(theta float64) Rect {
			hw := RR * math.Sin(theta)
			return Rect{q.X - hw, q.Y + rr, q.X + hw, q.Y + RR*math.Cos(theta)}
		}
		if r, _, ok := search(thetaLo, thetaHi, mk, robj, math.Atan(2)); ok {
			consider(r)
		}
	}
	if dx*dx >= rr*rr && thetaLo <= thetaHi {
		mk := func(theta float64) Rect {
			hh := RR * math.Cos(theta)
			return Rect{q.X + rr, q.Y - hh, q.X + RR*math.Sin(theta), q.Y + hh}
		}
		if r, _, ok := search(thetaLo, thetaHi, mk, robj, math.Atan(0.5)); ok {
			consider(r)
		}
	}
	if d := math.Hypot(dx, dy); d > 0 {
		consider(Rect{q.X + dx*rr/d, q.Y + dy*rr/d, q.X + dx*RR/d, q.Y + dy*RR/d})
	}
	return ensureContains(rf.rect(best).Intersect(cell), p, cell)
}

// irlpCase is one randomized Ir-lp input at the scales the monitor uses:
// cells from one grid cell to a third of the space, circles from a few
// thousandths (tight kNN quarantines) to larger than the cell.
type irlpCase struct {
	prod func(Objective) Rect
	ref  func(Objective, thetaSearch) Rect
	p    Point
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// randomIrlpCase draws one case of the given family, or ok=false when the
// draw does not satisfy the family's precondition on p.
func randomIrlpCase(rng *rand.Rand, family int) (irlpCase, bool) {
	side := logUniform(rng, 0.01, 0.3)
	p := Pt(0.3+0.4*rng.Float64(), 0.3+0.4*rng.Float64())
	minX, minY := p.X-side*rng.Float64(), p.Y-side*rng.Float64()
	cell := R(minX, minY, minX+side, minY+side)
	r := logUniform(rng, 0.002, 0.3)
	// Place the center so that p falls at a chosen offset from it. For the
	// complement, three draws in four put p between the arc and the disk's
	// bounding box, the only place where its θ family is searched, with a
	// disk near the cell's size so that it reaches into the cell.
	dist := r * 2 * rng.Float64()
	ang := 2 * math.Pi * rng.Float64()
	off := Pt(dist*math.Cos(ang), dist*math.Sin(ang))
	if family == 1 && rng.Intn(4) > 0 {
		r = side * logUniform(rng, 0.2, 5)
		off = Pt(r*rng.Float64(), r*rng.Float64())
		if rng.Intn(2) == 0 {
			off.X = -off.X
		}
		if rng.Intn(2) == 0 {
			off.Y = -off.Y
		}
	}
	center := p.Sub(off)
	c := Circle{Center: center, R: r}
	var tc irlpCase
	tc.p = p
	switch family {
	case 0:
		if !c.Contains(p) {
			return tc, false
		}
		tc.prod = func(o Objective) Rect { return IrlpCircle(c, p, cell, o) }
		tc.ref = func(o Objective, s thetaSearch) Rect { return refIrlpCircle(c, p, cell, o, s) }
	case 1:
		if c.Contains(p) {
			return tc, false
		}
		tc.prod = func(o Objective) Rect { return IrlpCircleComplement(c, p, cell, o) }
		tc.ref = func(o Objective, s thetaSearch) Rect { return refIrlpCircleComplement(c, p, cell, o, s) }
	default:
		rg := Ring{Center: center, Inner: r * rng.Float64(), Outer: r}
		if !rg.Contains(p) {
			return tc, false
		}
		tc.prod = func(o Objective) Rect { return IrlpRing(rg, p, cell, o) }
		tc.ref = func(o Objective, s thetaSearch) Rect { return refIrlpRing(rg, p, cell, o, s) }
	}
	return tc, true
}

// objectives are the two scorings the monitor uses: the exact exit integral
// and its Section 6.2 steady-movement weighting.
var objectives = []struct {
	name string
	make func(rng *rand.Rand, p Point) Objective
}{
	{"exit", func(_ *rand.Rand, p Point) Objective { return ExitObjective(p) }},
	{"weighted", func(rng *rand.Rand, p Point) Objective {
		step := 0.02 * rng.Float64()
		ang := 2 * math.Pi * rng.Float64()
		plst := Pt(p.X-step*math.Cos(ang), p.Y-step*math.Sin(ang))
		return WeightedExitObjective(plst, p, 0.2+0.8*rng.Float64())
	}},
}

// TestIrlpBrentMatchesTernary is the seeded differential test of the θ
// search. Every pick is scored by the objective it maximized (the exit
// integral MeanExitChord, or that integral times the Section 6.2 weight) and
// compared with the pick of the retired ternary search:
//   - at most 0.1% of the picks may score more than 1e-6 below the reference;
//   - none may score more than 1e-3 below it, except on a θ family whose
//     objective has several local maxima. The weighted objective has them:
//     its arccos term saturates into a cusp, and each search climbs to
//     whichever maximum its first samples favour, so such picks fall on
//     either side of the reference about equally often.
//
// It also bounds the mean number of objective evaluations per θ search.
func TestIrlpBrentMatchesTernary(t *testing.T) {
	const perFamily = 4000
	rng := rand.New(rand.NewSource(12))
	type family struct {
		lo, hi float64
		mk     func(float64) Rect
		obj    Objective
	}
	var calls, evals int
	var searched []family // the θ families of the current case
	counting := func(lo, hi float64, mk func(float64) Rect, obj Objective, analytic ...float64) (Rect, float64, bool) {
		calls++
		searched = append(searched, family{lo, hi, mk, obj})
		return optimizeTheta(lo, hi, mk, func(r Rect) float64 { evals++; return obj(r) }, analytic...)
	}
	names := []string{"IrlpCircle", "IrlpCircleComplement", "IrlpRing"}
	for _, o := range objectives {
		for fam, name := range names {
			var n, below, above, multimodal int
			calls0 := calls
			worst := 0.0
			for n < perFamily {
				tc, ok := randomIrlpCase(rng, fam)
				if !ok {
					continue
				}
				n++
				obj := o.make(rng, tc.p)
				got := tc.prod(obj)
				searched = searched[:0]
				//lint:allow floatcmp the copy must reproduce production bit for bit
				if mirror := tc.ref(obj, counting); mirror != got {
					t.Fatalf("%s/%s: test copy %v differs from production %v", name, o.name, mirror, got)
				}
				want := tc.ref(obj, ternaryTheta)
				sGot, sWant := obj(got), obj(want)
				if sWant <= 0 {
					continue
				}
				rel := (sWant - sGot) / sWant
				worst = math.Max(worst, rel)
				switch {
				case rel > 1e-6:
					below++
				case rel < -1e-6:
					above++
				}
				if rel <= 1e-3 {
					continue
				}
				several := false
				for _, f := range searched {
					several = several || localMaxima(f.lo, f.hi, f.mk, f.obj) > 1
				}
				if !several {
					t.Errorf("%s/%s: Brent pick %v scores %g, %.3g below the ternary pick %v (%g), on unimodal θ families",
						name, o.name, got, sGot, rel, want, sWant)
					continue
				}
				multimodal++
			}
			t.Logf("%s/%s: %d cases, %d θ searches; %d picks more than 1e-6 below the reference (worst %.3g, %d of them multimodal beyond 1e-3), %d more than 1e-6 above",
				o.name, name, n, calls-calls0, below, worst, multimodal, above)
			if below*1000 > n {
				t.Errorf("%s/%s: %d of %d picks more than 1e-6 below the reference (limit 0.1%%)", o.name, name, below, n)
			}
		}
	}
	if calls == 0 {
		t.Fatal("no θ search ran")
	}
	mean := float64(evals) / float64(calls)
	t.Logf("θ search: %d calls, %.1f objective evaluations per call", calls, mean)
	if mean > 25 {
		t.Errorf("θ search makes %.1f objective evaluations per call, want at most 25", mean)
	}
}

// localMaxima counts the local maxima of obj(mk(θ)) on a dense grid over
// [lo, hi], with a hysteresis of 1e-9 of the largest value so that rounding
// noise on a flat top does not count as extra maxima.
func localMaxima(lo, hi float64, mk func(float64) Rect, obj Objective) int {
	const steps = 4000
	vals := make([]float64, steps+1)
	top := 0.0
	for i := range vals {
		vals[i] = obj(mk(lo + (hi-lo)*float64(i)/steps))
		top = math.Max(top, math.Abs(vals[i]))
	}
	h := 1e-9 * top
	peaks, rising, ref := 0, true, vals[0]
	for _, v := range vals[1:] {
		switch {
		case rising && v > ref, !rising && v < ref:
			ref = v
		case rising && v < ref-h:
			peaks++
			rising, ref = false, v
		case !rising && v > ref+h:
			rising, ref = true, v
		}
	}
	if rising {
		peaks++
	}
	return peaks
}

// TestBrentMaxFindsInteriorMaximum checks the maximizer on smooth unimodal
// functions with a known argmax, including maxima at either end and near 0.
func TestBrentMaxFindsInteriorMaximum(t *testing.T) {
	for _, peak := range []float64{0, 1e-9, 0.3, math.Pi / 4, 1.2, math.Pi / 2} {
		var evals int
		mk := func(theta float64) Rect { return Rect{MinX: theta} }
		obj := func(r Rect) float64 { evals++; return -(r.MinX - peak) * (r.MinX - peak) }
		r, s := brentMax(0, math.Pi/2, mk, obj)
		if d := math.Abs(r.MinX - peak); d > 1e-7 {
			t.Errorf("peak %g: argmax %g off by %g", peak, r.MinX, d)
		}
		if s < -1e-14 {
			t.Errorf("peak %g: max %g, want ~0", peak, s)
		}
		if evals > 60 {
			t.Errorf("peak %g: %d evaluations", peak, evals)
		}
	}
}
