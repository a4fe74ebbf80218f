package geom

import "math"

// Polygon is a closed 2D loop of vertices. The closing edge from the last
// vertex back to the first is implicit. Positive signed area means
// counter-clockwise orientation.
type Polygon []Vec2

// SignedArea returns the signed area of the polygon (shoelace formula).
// Counter-clockwise loops have positive area.
func (p Polygon) SignedArea() float64 {
	var a float64
	n := len(p)
	if n < 3 {
		return 0
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a += p[i].Cross(p[j])
	}
	return a / 2
}

// Area returns the absolute area of the polygon.
func (p Polygon) Area() float64 { return math.Abs(p.SignedArea()) }

// IsCCW reports whether the polygon winds counter-clockwise.
func (p Polygon) IsCCW() bool { return p.SignedArea() > 0 }

// Reversed returns a copy of the polygon with opposite winding.
func (p Polygon) Reversed() Polygon {
	r := make(Polygon, len(p))
	for i, v := range p {
		r[len(p)-1-i] = v
	}
	return r
}

// Perimeter returns the total edge length including the closing edge.
func (p Polygon) Perimeter() float64 {
	var l float64
	n := len(p)
	for i := 0; i < n; i++ {
		l += p[i].Dist(p[(i+1)%n])
	}
	return l
}

// Centroid returns the area centroid of the polygon.
func (p Polygon) Centroid() Vec2 {
	var cx, cy, a float64
	n := len(p)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		cross := p[i].Cross(p[j])
		cx += (p[i].X + p[j].X) * cross
		cy += (p[i].Y + p[j].Y) * cross
		a += cross
	}
	if a == 0 {
		// Degenerate: fall back to vertex average.
		var s Vec2
		for _, v := range p {
			s = s.Add(v)
		}
		return s.Scale(1 / float64(len(p)))
	}
	return Vec2{cx / (3 * a), cy / (3 * a)}
}

// Bounds2 is a 2D axis-aligned bounding box.
type Bounds2 struct {
	Min, Max Vec2
}

// ContainsPoint reports whether q lies inside the closed box. Every point
// outside the bounding box of a closed loop has winding number zero, which
// is what makes the box a safe reject test for the winding probes.
func (b Bounds2) ContainsPoint(q Vec2) bool {
	return q.X >= b.Min.X && q.X <= b.Max.X && q.Y >= b.Min.Y && q.Y <= b.Max.Y
}

// Overlaps reports whether the two closed boxes share at least one point.
func (b Bounds2) Overlaps(o Bounds2) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y
}

// DistSq returns the squared distance from q to the closed box (zero
// inside). It lower-bounds the squared distance from q to anything the box
// contains, so distance searches can prune whole boxes against the best
// squared distance found so far without changing their result.
func (b Bounds2) DistSq(q Vec2) float64 {
	var dx, dy float64
	if q.X < b.Min.X {
		dx = b.Min.X - q.X
	} else if q.X > b.Max.X {
		dx = q.X - b.Max.X
	}
	if q.Y < b.Min.Y {
		dy = b.Min.Y - q.Y
	} else if q.Y > b.Max.Y {
		dy = q.Y - b.Max.Y
	}
	return dx*dx + dy*dy
}

// Bounds returns the polygon's bounding box.
func (p Polygon) Bounds() Bounds2 {
	inf := math.Inf(1)
	b := Bounds2{Min: Vec2{inf, inf}, Max: Vec2{-inf, -inf}}
	for _, v := range p {
		b.Min.X = math.Min(b.Min.X, v.X)
		b.Min.Y = math.Min(b.Min.Y, v.Y)
		b.Max.X = math.Max(b.Max.X, v.X)
		b.Max.Y = math.Max(b.Max.Y, v.Y)
	}
	return b
}

// WindingNumber returns the winding number of the polygon around point q.
// Zero means outside for simple polygons.
func (p Polygon) WindingNumber(q Vec2) int {
	w := 0
	n := len(p)
	for i := 0; i < n; i++ {
		w += EdgeWinding(p[i], p[(i+1)%n], q)
	}
	return w
}

// EdgeWinding returns the directed edge a→b's contribution to a winding
// number around q: +1 when the edge rises past q with q strictly to its
// left, -1 when it falls past q with q strictly to its right, else 0. The
// edge counts only when min(a.Y, b.Y) <= q.Y < max(a.Y, b.Y), so
// horizontal edges never count; an index that visits every edge meeting
// that half-open y-range and sums EdgeWinding reproduces WindingNumber.
func EdgeWinding(a, b, q Vec2) int {
	s := 1
	if a.Y <= q.Y {
		if b.Y <= q.Y {
			return 0
		}
	} else if b.Y > q.Y {
		return 0
	} else {
		s = -1
	}
	// b.Sub(a).Cross(q.Sub(a)), spelled out to stay under the inlining
	// budget: the hot winding loops call this once per edge.
	if c := (b.X-a.X)*(q.Y-a.Y) - (b.Y-a.Y)*(q.X-a.X); c*float64(s) > 0 {
		return s
	}
	return 0
}

// Contains reports whether q lies strictly inside the polygon under the
// non-zero winding rule.
func (p Polygon) Contains(q Vec2) bool { return p.WindingNumber(q) != 0 }

// DistToBoundary returns the distance from q to the polygon boundary.
func (p Polygon) DistToBoundary(q Vec2) float64 {
	best := math.Inf(1)
	n := len(p)
	for i := 0; i < n; i++ {
		d := (Segment2{p[i], p[(i+1)%n]}).Dist(q)
		if d < best {
			best = d
		}
	}
	return best
}

// MinDist returns the minimum distance between the boundaries of p and o.
func (p Polygon) MinDist(o Polygon) float64 {
	best := math.Inf(1)
	for _, v := range p {
		if d := o.DistToBoundary(v); d < best {
			best = d
		}
	}
	for _, v := range o {
		if d := p.DistToBoundary(v); d < best {
			best = d
		}
	}
	return best
}

// Simplify removes consecutive vertices closer than tol and collinear
// vertices whose removal changes the outline by less than tol.
func (p Polygon) Simplify(tol float64) Polygon {
	if len(p) < 3 {
		return p
	}
	out := make(Polygon, 0, len(p))
	for _, v := range p {
		if len(out) > 0 && out[len(out)-1].Eq(v, tol) {
			continue
		}
		out = append(out, v)
	}
	// Drop a duplicated closing vertex.
	for len(out) >= 2 && out[0].Eq(out[len(out)-1], tol) {
		out = out[:len(out)-1]
	}
	if len(out) < 3 {
		return out
	}
	// Remove near-collinear vertices. Each candidate is tested against
	// the segment from the last *kept* vertex to its next original
	// neighbour, so cumulative drift stays bounded by tol (testing
	// against original neighbours would let cascaded removals flatten
	// genuine curvature).
	res := make(Polygon, 0, len(out))
	res = append(res, out[0])
	n := len(out)
	for i := 1; i < n; i++ {
		cur := out[i]
		next := out[(i+1)%n]
		last := res[len(res)-1]
		if (Segment2{A: last, B: next}).Dist(cur) > tol {
			res = append(res, cur)
		}
	}
	if len(res) < 3 {
		return out
	}
	return res
}

// Inset returns the polygon offset inward by distance d (for CCW
// polygons; CW polygons are offset outward by symmetry). Vertices move
// along their angle bisectors with miter limiting. ok is false when the
// inset degenerates (too narrow a region, flipped orientation or
// collapsed area).
func (p Polygon) Inset(d float64) (Polygon, bool) {
	n := len(p)
	if n < 3 || d <= 0 {
		return nil, false
	}
	out := make(Polygon, 0, n)
	const miterLimit = 4.0
	for i := 0; i < n; i++ {
		prev := p[(i-1+n)%n]
		cur := p[i]
		next := p[(i+1)%n]
		d1 := cur.Sub(prev).Normalized()
		d2 := next.Sub(cur).Normalized()
		// Inward normals for a CCW polygon are the left-hand perps.
		n1 := d1.Perp()
		n2 := d2.Perp()
		bis := n1.Add(n2)
		l := bis.Len()
		if l < 1e-12 {
			// 180-degree reversal: fall back to a single normal.
			bis = n1
			l = 1
		}
		bis = bis.Scale(1 / l)
		// Miter length: d / cos(half angle); cos = bis·n1.
		c := bis.Dot(n1)
		scale := d
		if c > 1e-6 {
			scale = d / c
		}
		if scale > miterLimit*d {
			scale = miterLimit * d
		}
		out = append(out, cur.Add(bis.Scale(scale)))
	}
	out = out.Simplify(1e-9)
	if len(out) < 3 {
		return nil, false
	}
	a0 := p.SignedArea()
	a1 := out.SignedArea()
	// The inset must preserve orientation and strictly shrink.
	if a0 > 0 && (a1 <= 0 || a1 >= a0) {
		return nil, false
	}
	// CW polygons offset outward, so their (negative) area must grow in
	// magnitude.
	if a0 < 0 && (a1 >= 0 || a1 >= a0) {
		return nil, false
	}
	return out, true
}

// Translate returns the polygon shifted by d.
func (p Polygon) Translate(d Vec2) Polygon {
	out := make(Polygon, len(p))
	for i, v := range p {
		out[i] = v.Add(d)
	}
	return out
}

// PolygonSet is a collection of loops forming a region; outer loops wind
// CCW and holes wind CW by convention, making the non-zero winding rule
// equivalent to the intuitive filled region.
type PolygonSet []Polygon

// WindingNumber returns the summed winding number of all loops around q.
func (s PolygonSet) WindingNumber(q Vec2) int {
	w := 0
	for _, p := range s {
		w += p.WindingNumber(q)
	}
	return w
}

// ContainsNonZero reports whether q is inside the region under the
// non-zero winding rule.
func (s PolygonSet) ContainsNonZero(q Vec2) bool { return s.WindingNumber(q) != 0 }

// ContainsEvenOdd reports whether q is inside the region under the
// even-odd (parity) rule, the rule many slicers apply to raw STL shells.
func (s PolygonSet) ContainsEvenOdd(q Vec2) bool {
	crossings := 0
	for _, p := range s {
		crossings += p.WindingNumber(q)
	}
	// Parity of total winding equals parity of crossings for our loops.
	return crossings%2 != 0
}

// Area returns the net signed area of the set (holes subtract).
func (s PolygonSet) Area() float64 {
	var a float64
	for _, p := range s {
		a += p.SignedArea()
	}
	return a
}

// Bounds returns the bounding box of all loops.
func (s PolygonSet) Bounds() Bounds2 {
	inf := math.Inf(1)
	b := Bounds2{Min: Vec2{inf, inf}, Max: Vec2{-inf, -inf}}
	for _, p := range s {
		pb := p.Bounds()
		b.Min.X = math.Min(b.Min.X, pb.Min.X)
		b.Min.Y = math.Min(b.Min.Y, pb.Min.Y)
		b.Max.X = math.Max(b.Max.X, pb.Max.X)
		b.Max.Y = math.Max(b.Max.Y, pb.Max.Y)
	}
	return b
}
