package geom

import (
	"math"
	"testing"
)

// sanitize maps an arbitrary float into [0, 1), rejecting non-finite input.
func sanitize(v float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	v = math.Mod(math.Abs(v), 1)
	return v, true
}

// FuzzIrlpCircle cross-checks the Proposition 5.2 inscribed-rectangle
// construction against its defining properties and a brute-force sampler over
// the same rectangle family: the result must contain p, stay inside the disk
// and the cell, and its perimeter must not be beaten by any sampled inscribed
// rectangle that also contains p.
func FuzzIrlpCircle(f *testing.F) {
	f.Add(0.5, 0.5, 0.25, 0.3, 0.7)
	f.Add(0.4, 0.6, 0.1, 0.99, 0.01)
	f.Add(0.35, 0.35, 0.02, 0.5, 0.5)
	f.Fuzz(func(t *testing.T, cx, cy, cr, px, py float64) {
		vals := [5]*float64{&cx, &cy, &cr, &px, &py}
		for _, v := range vals {
			s, ok := sanitize(*v)
			if !ok {
				t.Skip()
			}
			*v = s
		}
		cell := R(0, 0, 1, 1)
		// Keep the disk strictly inside the cell so clipping cannot shrink the
		// optimum; the sampler below assumes the unclipped family.
		c := Circle{Center: Pt(0.3+0.4*cx, 0.3+0.4*cy), R: 0.02 + 0.27*cr}
		p := Pt(px, py)

		got := IrlpCircle(c, p, cell, Perimeter)
		if !got.IsValid() {
			t.Fatalf("IrlpCircle(%v, %v) returned invalid rect %v", c, p, got)
		}
		if !got.Contains(p) {
			t.Fatalf("IrlpCircle(%v, %v) = %v does not contain p", c, p, got)
		}
		if !cell.ContainsRect(got) {
			t.Fatalf("IrlpCircle(%v, %v) = %v escapes the cell", c, p, got)
		}
		if !c.Contains(p) {
			return // degenerate branch: rectangle collapses to p
		}
		if d := got.MaxDist(c.Center); d > c.R+1e-9 {
			t.Fatalf("IrlpCircle(%v, %v) = %v leaves the disk: max dist %g > r %g", c, p, got, d, c.R)
		}
		// Brute-force sampler over the inscribed family: center-symmetric
		// rectangles with corner at angle theta on the circle.
		best := 0.0
		for i := 0; i <= 256; i++ {
			theta := float64(i) / 256 * math.Pi / 2
			hw := c.R * math.Sin(theta)
			hh := c.R * math.Cos(theta)
			r := Rect{c.Center.X - hw, c.Center.Y - hh, c.Center.X + hw, c.Center.Y + hh}
			if r.Contains(p) && r.Perimeter() > best {
				best = r.Perimeter()
			}
		}
		if got.Perimeter() < best-1e-6 {
			t.Fatalf("IrlpCircle(%v, %v) perimeter %g beaten by sampled inscribed rect %g",
				c, p, got.Perimeter(), best)
		}
	})
}

// FuzzIrlpCircleComplement checks the Proposition 5.4 construction for
// non-members: the result must contain p, stay inside the cell, and avoid the
// interior of the disk.
func FuzzIrlpCircleComplement(f *testing.F) {
	f.Add(0.5, 0.5, 0.2, 0.9, 0.9)
	f.Add(0.3, 0.7, 0.05, 0.1, 0.1)
	f.Add(0.6, 0.4, 0.3, 0.01, 0.99)
	f.Fuzz(func(t *testing.T, cx, cy, cr, px, py float64) {
		vals := [5]*float64{&cx, &cy, &cr, &px, &py}
		for _, v := range vals {
			s, ok := sanitize(*v)
			if !ok {
				t.Skip()
			}
			*v = s
		}
		cell := R(0, 0, 1, 1)
		c := Circle{Center: Pt(cx, cy), R: 0.01 + 0.4*cr}
		p := Pt(px, py)
		if c.Contains(p) {
			t.Skip() // the complement construction is specified for outside points
		}

		got := IrlpCircleComplement(c, p, cell, Perimeter)
		if !got.IsValid() {
			t.Fatalf("IrlpCircleComplement(%v, %v) returned invalid rect %v", c, p, got)
		}
		if !got.Contains(p) {
			t.Fatalf("IrlpCircleComplement(%v, %v) = %v does not contain p", c, p, got)
		}
		if !cell.ContainsRect(got) {
			t.Fatalf("IrlpCircleComplement(%v, %v) = %v escapes the cell", c, p, got)
		}
		if d := got.MinDist(c.Center); d < c.R-1e-9 {
			t.Fatalf("IrlpCircleComplement(%v, %v) = %v intrudes into the disk: min dist %g < r %g",
				c, p, got, d, c.R)
		}
	})
}

// FuzzIrlpRing checks the Proposition 5.5 construction against its defining
// properties and a brute-force sampler: the result must contain p, stay
// inside the cell and the annulus, and score no lower than any sampled
// candidate that contains p. The sampler walks the same candidates densely:
// strips tangent to the inner circle on each of its four sides with corners
// on the outer circle, and the radial box. Both the perimeter and the exit
// integral are checked; the exit integral has no analytic optimum, so only
// the θ search can find it.
func FuzzIrlpRing(f *testing.F) {
	f.Add(0.5, 0.5, 0.5, 0.5, 0.9, 0.3)
	f.Add(0.4, 0.6, 0.1, 0.9, 0.2, 0.8)
	f.Add(0.5, 0.5, 0.9, 0.2, 0.5, 0.95)
	f.Fuzz(func(t *testing.T, cx, cy, inner, outer, rho, phi float64) {
		vals := [6]*float64{&cx, &cy, &inner, &outer, &rho, &phi}
		for _, v := range vals {
			s, ok := sanitize(*v)
			if !ok {
				t.Skip()
			}
			*v = s
		}
		cell := R(0, 0, 1, 1)
		// Keep the annulus strictly inside the cell so clipping cannot shrink
		// the optimum; the sampler assumes the unclipped candidates.
		q := Pt(0.3+0.4*cx, 0.3+0.4*cy)
		rg := Ring{Center: q, Outer: 0.02 + 0.27*outer}
		rg.Inner = rg.Outer * (0.05 + 0.9*inner)
		d := rg.Inner + (rg.Outer-rg.Inner)*rho
		p := Pt(q.X+d*math.Cos(2*math.Pi*phi), q.Y+d*math.Sin(2*math.Pi*phi))
		if !rg.Contains(p) {
			t.Skip() // rounding put p on the wrong side of a boundary
		}
		for _, o := range []struct {
			name string
			obj  Objective
		}{{"perimeter", Perimeter}, {"exit", ExitObjective(p)}} {
			got := IrlpRing(rg, p, cell, o.obj)
			if !got.IsValid() || !got.Contains(p) {
				t.Fatalf("IrlpRing(%v, %v, %s) = %v does not contain p", rg, p, o.name, got)
			}
			if !cell.ContainsRect(got) {
				t.Fatalf("IrlpRing(%v, %v, %s) = %v escapes the cell", rg, p, o.name, got)
			}
			if dmax := got.MaxDist(q); dmax > rg.Outer+1e-9 {
				t.Fatalf("IrlpRing(%v, %v, %s) = %v leaves the outer disk: max dist %g > %g", rg, p, o.name, got, dmax, rg.Outer)
			}
			if dmin := got.MinDist(q); dmin < rg.Inner-1e-9 {
				t.Fatalf("IrlpRing(%v, %v, %s) = %v enters the inner disk: min dist %g < %g", rg, p, o.name, got, dmin, rg.Inner)
			}
			best := ringSamplerBest(rg, p, o.obj)
			if s := o.obj(got); s < best*(1-1e-6) {
				t.Fatalf("IrlpRing(%v, %v, %s) = %v scores %g, beaten by a sampled candidate at %g", rg, p, o.name, got, s, best)
			}
		}
	})
}

// ringSamplerBest returns the best score of the sampled ring candidates that
// contain p.
func ringSamplerBest(rg Ring, p Point, obj Objective) float64 {
	q, rr, RR := rg.Center, rg.Inner, rg.Outer
	best := 0.0
	try := func(r Rect) {
		if r.IsValid() && r.Contains(p) {
			best = math.Max(best, obj(r))
		}
	}
	const steps = 1024
	for i := 0; i <= steps; i++ {
		theta := float64(i) / steps * math.Pi / 2
		w, h := RR*math.Sin(theta), RR*math.Cos(theta)
		try(Rect{q.X - w, q.Y + rr, q.X + w, q.Y + h}) // above the inner disk
		try(Rect{q.X - w, q.Y - h, q.X + w, q.Y - rr}) // below
		try(Rect{q.X + rr, q.Y - h, q.X + w, q.Y + h}) // right
		try(Rect{q.X - w, q.Y - h, q.X - rr, q.Y + h}) // left
	}
	dx, dy := p.X-q.X, p.Y-q.Y
	if d := math.Hypot(dx, dy); d > 0 {
		try(R(q.X+dx*rr/d, q.Y+dy*rr/d, q.X+dx*RR/d, q.Y+dy*RR/d))
	}
	return best
}
