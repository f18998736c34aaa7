package geom

import "math"

// Objective scores a candidate safe region; larger is better. The default is
// Rect.Perimeter (Theorem 5.1 shows minimizing the update rate is equivalent
// to maximizing the perimeter for uniformly random headings). Section 6.2
// substitutes the steady-movement weighted perimeter.
type Objective func(Rect) float64

// Perimeter is the default objective from Theorem 5.1.
func Perimeter(r Rect) float64 { return r.Perimeter() }

// WeightedPerimeter returns the steady-movement objective of Section 6.2.
// plst is the previous reported location, p the current one, and d ∈ [0, 1]
// the steadiness parameter. The weighted perimeter of a rectangle with
// ordinary perimeter λ, center o, is approximated through a circle of equal
// perimeter:
//
//	λw = (1+D)·λ − (2Dλ/π)·arccos(2π·|po|·cosβ / λ)
//
// where β is the angle between the vector p→o and the heading p_lst→p.
func WeightedPerimeter(plst, p Point, d float64) Objective {
	heading := p.Sub(plst)
	hn := heading.Norm()
	return func(r Rect) float64 {
		lambda := r.Perimeter()
		if lambda <= 0 {
			return 0
		}
		if d == 0 || hn == 0 {
			return lambda
		}
		po := r.Center().Sub(p)
		pod := po.Norm()
		cosBeta := 1.0
		if pod > 0 {
			cosBeta = (po.X*heading.X + po.Y*heading.Y) / (pod * hn)
		}
		arg := 2 * math.Pi * pod * cosBeta / lambda
		if arg > 1 {
			arg = 1
		} else if arg < -1 {
			arg = -1
		}
		return (1+d)*lambda - (2*d*lambda/math.Pi)*math.Acos(arg)
	}
}

// reflection maps the plane so that an arbitrary configuration becomes the
// canonical one (target point in the first quadrant relative to the pivot q),
// and maps results back. It is its own inverse.
type reflection struct {
	q      Point
	sx, sy float64
}

func canonicalize(q, p Point) reflection {
	rf := reflection{q: q, sx: 1, sy: 1}
	if p.X < q.X {
		rf.sx = -1
	}
	if p.Y < q.Y {
		rf.sy = -1
	}
	return rf
}

// canonicalOffset is p's offset from q in the canonical frame, taken from p
// itself: the reflected point is rounded, which can move p across a
// boundary it lies on, such as a ring's inner circle.
func canonicalOffset(q, p Point) (float64, float64) {
	return math.Abs(p.X - q.X), math.Abs(p.Y - q.Y)
}

func (rf reflection) point(p Point) Point {
	return Point{rf.q.X + rf.sx*(p.X-rf.q.X), rf.q.Y + rf.sy*(p.Y-rf.q.Y)}
}

func (rf reflection) rect(r Rect) Rect {
	a := rf.point(Point{r.MinX, r.MinY})
	b := rf.point(Point{r.MaxX, r.MaxY})
	return R(a.X, a.Y, b.X, b.Y)
}

// optimizeTheta maximizes obj over the unimodal single-parameter rectangle
// family mk on [lo, hi]. It evaluates the interval endpoints and any analytic
// optima (clamped into the interval), refines with Brent's method (brentMax)
// for objectives without a closed form, and keeps the best of all
// candidates. Returns the best rectangle and its score; ok=false when
// lo > hi.
func optimizeTheta(lo, hi float64, mk func(float64) Rect, obj Objective, analytic ...float64) (Rect, float64, bool) {
	if lo > hi {
		return Rect{}, 0, false
	}
	best := mk(lo)
	bestScore := obj(best)
	if hi <= lo {
		return best, bestScore, true
	}
	r := mk(hi)
	if s := obj(r); s > bestScore {
		best, bestScore = r, s
	}
	for _, a := range analytic {
		if a > lo && a < hi {
			r = mk(a)
			if s := obj(r); s > bestScore {
				best, bestScore = r, s
			}
		}
	}
	if r, s := brentMax(lo, hi, mk, obj); s > bestScore {
		best, bestScore = r, s
	}
	return best, bestScore, true
}

const (
	// goldenStep is (3-√5)/2, the golden-section fraction of an interval.
	goldenStep = 0.3819660112501051
	// sqrtEps is √ε for float64: the relative tolerance below which a
	// smooth function's maximum cannot be located from its values, since
	// f(x+δ) - f(x) = O(δ²) is lost to rounding once δ < √ε·|x|.
	sqrtEps = 1.4901161193847656e-08
	// thetaAbsTol keeps the tolerance positive when the optimum sits at θ ≈ 0.
	thetaAbsTol = 1e-12
)

// brentMax maximizes obj(mk(θ)) over [a, b] with Brent's derivative-free
// method (Brent 1973, Algorithms for Minimization without Derivatives, ch. 5):
// parabolic interpolation through the three best points when it lands inside
// the bracket and shrinks the step, golden-section steps otherwise, stopping
// once the bracket is within the relative tolerance √ε of the best point.
// It stands in for the paper's three-point shrinking search (Section 6.2;
// DESIGN.md §2). It returns the best rectangle evaluated and its score.
func brentMax(a, b float64, mk func(float64) Rect, obj Objective) (Rect, float64) {
	x := a + goldenStep*(b-a)
	rx := mk(x)
	fx := obj(rx)
	w, v, fw, fv := x, x, fx, fx
	var d, e float64 // the last step and the one before it
	for {
		mid := 0.5 * (a + b)
		tol := sqrtEps*math.Abs(x) + thetaAbsTol
		if math.Abs(x-mid) <= 2*tol-0.5*(b-a) {
			return rx, fx
		}
		golden := true
		if math.Abs(e) > tol {
			// Parabola through (v, fv), (w, fw), (x, fx); its vertex is x+p/q.
			// The formula is the same for a maximum as for a minimum.
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			} else {
				q = -q
			}
			// Accept the step only if it lies inside the bracket and is less
			// than half the step before last, so the bracket keeps shrinking.
			if math.Abs(p) < math.Abs(0.5*q*e) && p > q*(a-x) && p < q*(b-x) {
				e, d = d, p/q
				if u := x + d; u-a < 2*tol || b-u < 2*tol {
					d = math.Copysign(tol, mid-x)
				}
				golden = false
			}
		}
		if golden {
			if x < mid {
				e = b - x
			} else {
				e = a - x
			}
			d = goldenStep * e
		}
		// Never evaluate closer than tol to x: the values would only differ by
		// rounding.
		u := x + math.Copysign(math.Max(math.Abs(d), tol), d)
		ru := mk(u)
		fu := obj(ru)
		if fu >= fx {
			if u < x {
				b = x
			} else {
				a = x
			}
			v, fv = w, fw
			w, fw = x, fx
			x, fx, rx = u, fu, ru
			continue
		}
		if u < x {
			a = u
		} else {
			b = u
		}
		// w and v are the second- and third-best points; the exact equalities
		// detect the start-up state where they still coincide with x.
		switch {
		case fu >= fw || w == x: //lint:allow floatcmp stored abscissae, equal only as the same sample
			v, fv = w, fw
			w, fw = u, fu
		case fu >= fv || v == x || v == w: //lint:allow floatcmp stored abscissae, equal only as the same sample
			v, fv = u, fu
		}
	}
}

// IrlpCircle returns the inscribed rectangle of the disk c with the largest
// objective that still contains p (Proposition 5.2), intersected with cell.
// p must lie inside the disk; if it does not, the degenerate rectangle at p
// is returned.
func IrlpCircle(c Circle, p Point, cell Rect, obj Objective) Rect {
	if c.R <= 0 || !c.Contains(p) {
		return RectAround(p).Intersect(cell)
	}
	rf := canonicalize(c.Center, p)
	q := c.Center
	dx, dy := canonicalOffset(q, p)
	// Inscribed rectangle with corner at angle θ from the y-axis:
	// half-width r·sinθ, half-height r·cosθ. Containment of p requires
	// θ ∈ [arcsin(dx/r), arccos(dy/r)].
	thetaLo := math.Asin(clamp(dx/c.R, 0, 1))
	thetaHi := math.Acos(clamp(dy/c.R, 0, 1))
	mk := func(theta float64) Rect {
		hw := c.R * math.Sin(theta)
		hh := c.R * math.Cos(theta)
		return Rect{q.X - hw, q.Y - hh, q.X + hw, q.Y + hh}
	}
	best, _, ok := optimizeTheta(thetaLo, thetaHi, mk, objReflected(obj, rf, p), math.Pi/4)
	if !ok {
		return RectAround(p).Intersect(cell)
	}
	out := rf.rect(best).Intersect(cell)
	return ensureContains(out, p, cell)
}

// IrlpCircleComplement returns the largest-objective rectangle inside cell
// that avoids the disk c and contains p (Proposition 5.4, with the perimeter
// direction corrected — see DESIGN.md). p must lie inside cell and outside
// the disk.
func IrlpCircleComplement(c Circle, p Point, cell Rect, obj Objective) Rect {
	if !c.IntersectsRect(cell) {
		return cell
	}
	if c.Contains(p) {
		return RectAround(p).Intersect(cell)
	}
	// Work inside the cell enlarged to cover the circle, then clip back
	// (Section 5.2 "we enlarge the cell to fully contain the circle").
	e := cell.Union(c.BBox())
	rf := canonicalize(c.Center, p)
	cp := rf.point(p)
	ce := rf.rect(e)
	q := c.Center
	dx, dy := canonicalOffset(q, p)
	t := Point{ce.MaxX, ce.MaxY} // Lemma 5.3: cell corner of p's quadrant

	best := RectAround(cp)
	robj := objReflected(obj, rf, p)
	bestScore := robj(best)
	consider := func(r Rect) {
		if s := robj(r); s > bestScore {
			best, bestScore = r, s
		}
	}

	// Family 1: opposite corner x on the quarter arc, x = q + (r·sinθ, r·cosθ).
	// Containment of p requires θ ≤ θx and θ ≥ θy.
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
			x := Point{q.X + c.R*math.Sin(theta), q.Y + c.R*math.Cos(theta)}
			return R(x.X, x.Y, t.X, t.Y)
		}
		if r, _, ok := optimizeTheta(thetaY, thetaX, mk, robj, math.Pi/4); ok {
			consider(r)
		}
	}
	// Family 2 (position ①): the full-width strip above the circle.
	if dy >= c.R {
		consider(Rect{ce.MinX, q.Y + c.R, ce.MaxX, ce.MaxY})
	}
	// Family 3 (position ②): the full-height strip beside the circle.
	if dx >= c.R {
		consider(Rect{q.X + c.R, ce.MinY, ce.MaxX, ce.MaxY})
	}

	out := rf.rect(best).Intersect(cell)
	return ensureContains(out, p, cell)
}

// IrlpRing returns the largest-objective rectangle within the annulus rg that
// contains p (Proposition 5.5 plus the radial-box fallback for objects beside
// the inner disk), intersected with cell.
func IrlpRing(rg Ring, p Point, cell Rect, obj Objective) Rect {
	if rg.Inner <= 0 {
		return IrlpCircle(Circle{rg.Center, rg.Outer}, p, cell, obj)
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
	// Layout H: tangent to the inner circle from above, corners on the outer
	// circle. Valid when p sits above the inner circle (dy ≥ inner), tested
	// on squares as Ring.Contains does, so that a p it accepts on the inner
	// circle keeps the layout.
	if dy*dy >= rr*rr && thetaLo <= thetaHi {
		mk := func(theta float64) Rect {
			hw := RR * math.Sin(theta)
			top := RR * math.Cos(theta)
			return Rect{q.X - hw, q.Y + rr, q.X + hw, q.Y + top}
		}
		if r, _, ok := optimizeTheta(thetaLo, thetaHi, mk, robj, math.Atan(2)); ok {
			consider(r)
		}
	}
	// Layout V: tangent to the inner circle from the right.
	if dx*dx >= rr*rr && thetaLo <= thetaHi {
		mk := func(theta float64) Rect {
			hh := RR * math.Cos(theta)
			right := RR * math.Sin(theta)
			return Rect{q.X + rr, q.Y - hh, q.X + right, q.Y + hh}
		}
		if r, _, ok := optimizeTheta(thetaLo, thetaHi, mk, robj, math.Atan(0.5)); ok {
			consider(r)
		}
	}
	// Radial box fallback: corners scaled along p's direction to the inner and
	// outer radii; always valid for p in the ring, and the only candidate when
	// dx < inner and dy < inner.
	d := math.Hypot(dx, dy)
	if d > 0 {
		consider(Rect{
			q.X + dx*rr/d, q.Y + dy*rr/d,
			q.X + dx*RR/d, q.Y + dy*RR/d,
		})
	}

	out := rf.rect(best).Intersect(cell)
	return ensureContains(out, p, cell)
}

// IrlpRectComplement returns the best of the four cell-anchored strips that
// avoid the (cell-clipped) rectangle q and contain p (Section 5.1, Figure
// 5.1(b)). p must be inside cell and outside q.
func IrlpRectComplement(q Rect, p Point, cell Rect, obj Objective) Rect {
	qc := q.Intersect(cell)
	if !qc.IsValid() {
		return cell
	}
	if qc.Contains(p) {
		return RectAround(p)
	}
	best := RectAround(p)
	bestScore := obj(best)
	for _, cand := range [4]Rect{
		{cell.MinX, cell.MinY, qc.MinX, cell.MaxY}, // left strip
		{qc.MaxX, cell.MinY, cell.MaxX, cell.MaxY}, // right strip
		{cell.MinX, cell.MinY, cell.MaxX, qc.MinY}, // bottom strip
		{cell.MinX, qc.MaxY, cell.MaxX, cell.MaxY}, // top strip
	} {
		if !cand.IsValid() || !cand.Contains(p) {
			continue
		}
		if s := obj(cand); s > bestScore {
			best, bestScore = cand, s
		}
	}
	return best
}

// objReflected scores a candidate built in the canonical frame of rf: it maps
// the candidate back to the original frame (normalizing it) and widens it to
// contain p. Every candidate is a valid rectangle containing p in exact
// arithmetic, but rounding (at the ends of a θ interval, on a circle, in the
// reflection itself) can invert it or leave p outside by a hair, which
// would score a good candidate, or a whole θ family, as worthless.
func objReflected(obj Objective, rf reflection, p Point) Objective {
	return func(r Rect) float64 { return obj(rf.rect(r).Union(RectAround(p))) }
}

// ensureContains guards against floating-point rounding expelling p from the
// computed region: the result is widened by the minimum amount required so
// that p is inside, while staying inside cell.
func ensureContains(r Rect, p Point, cell Rect) Rect {
	if !r.IsValid() {
		r = RectAround(p)
	}
	if !r.Contains(p) {
		r = r.Union(RectAround(p))
	}
	return r.Intersect(cell.Union(RectAround(p)))
}
