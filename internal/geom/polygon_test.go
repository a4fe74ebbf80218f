package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func square(cx, cy, half float64) Polygon {
	return Polygon{
		V2(cx-half, cy-half), V2(cx+half, cy-half),
		V2(cx+half, cy+half), V2(cx-half, cy+half),
	}
}

func TestPolygonArea(t *testing.T) {
	p := square(0, 0, 1)
	if got := p.SignedArea(); !ApproxEq(got, 4, 1e-12) {
		t.Errorf("SignedArea = %v, want 4", got)
	}
	if got := p.Reversed().SignedArea(); !ApproxEq(got, -4, 1e-12) {
		t.Errorf("reversed SignedArea = %v, want -4", got)
	}
	if !p.IsCCW() || p.Reversed().IsCCW() {
		t.Error("orientation predicates inconsistent")
	}
	if got := p.Perimeter(); !ApproxEq(got, 8, 1e-12) {
		t.Errorf("Perimeter = %v, want 8", got)
	}
}

func TestPolygonCentroid(t *testing.T) {
	p := square(3, -2, 1)
	if got := p.Centroid(); !got.Eq(V2(3, -2), 1e-12) {
		t.Errorf("Centroid = %v", got)
	}
}

// EdgeWinding's crossing rule: half-open in y (the lower endpoint's row
// counts, the upper one's does not), strict about the side, so points on
// the edge and horizontal edges contribute nothing.
func TestEdgeWinding(t *testing.T) {
	up, down := [2]Vec2{V2(0, 0), V2(0, 2)}, [2]Vec2{V2(0, 2), V2(0, 0)}
	flat := [2]Vec2{V2(0, 1), V2(2, 1)}
	cases := []struct {
		e    [2]Vec2
		q    Vec2
		want int
	}{
		{up, V2(-1, 1), 1},    // rising, q to the left
		{up, V2(1, 1), 0},     // rising, q to the right
		{down, V2(-1, 1), -1}, // falling, q to the right
		{down, V2(1, 1), 0},   // falling, q to the left
		{up, V2(0, 1), 0},     // q on the edge
		{up, V2(-1, 0), 1},    // lower endpoint's row counts
		{up, V2(-1, 2), 0},    // upper endpoint's row does not
		{down, V2(-1, 0), -1}, // same rule for a falling edge
		{down, V2(-1, 2), 0},
		{flat, V2(1, 1), 0}, // horizontal edges never count
		{flat, V2(1, 0), 0},
	}
	for _, tc := range cases {
		if got := EdgeWinding(tc.e[0], tc.e[1], tc.q); got != tc.want {
			t.Errorf("EdgeWinding(%v, %v, %v) = %d, want %d", tc.e[0], tc.e[1], tc.q, got, tc.want)
		}
	}
}

func TestWindingNumber(t *testing.T) {
	p := square(0, 0, 1)
	if got := p.WindingNumber(V2(0, 0)); got != 1 {
		t.Errorf("inside winding = %d, want 1", got)
	}
	if got := p.WindingNumber(V2(5, 5)); got != 0 {
		t.Errorf("outside winding = %d, want 0", got)
	}
	if got := p.Reversed().WindingNumber(V2(0, 0)); got != -1 {
		t.Errorf("CW inside winding = %d, want -1", got)
	}
	if !p.Contains(V2(0.5, -0.5)) {
		t.Error("Contains should include interior point")
	}
	if p.Contains(V2(1.5, 0)) {
		t.Error("Contains should exclude exterior point")
	}
}

func TestPolygonSetFillRules(t *testing.T) {
	outer := square(0, 0, 2)
	hole := square(0, 0, 1).Reversed() // CW hole
	s := PolygonSet{outer, hole}
	if s.ContainsNonZero(V2(0, 0)) {
		t.Error("hole interior should be outside (non-zero)")
	}
	if !s.ContainsNonZero(V2(1.5, 0)) {
		t.Error("annulus should be inside (non-zero)")
	}
	if got := s.Area(); !ApproxEq(got, 16-4, 1e-12) {
		t.Errorf("set Area = %v, want 12", got)
	}

	// Two nested CCW loops (raw STL nested shells): even-odd makes the
	// inner region hollow even though winding is 2. This is the slicer
	// behaviour the embedded-sphere feature (§3.2) exploits.
	nested := PolygonSet{square(0, 0, 2), square(0, 0, 1)}
	if nested.ContainsEvenOdd(V2(0, 0)) {
		t.Error("even-odd: doubly-enclosed point should be hollow")
	}
	if !nested.ContainsNonZero(V2(0, 0)) {
		t.Error("non-zero: doubly-enclosed point should be solid")
	}
	if !nested.ContainsEvenOdd(V2(1.5, 0)) {
		t.Error("even-odd: singly-enclosed point should be solid")
	}
}

func TestDistToBoundary(t *testing.T) {
	p := square(0, 0, 1)
	if got := p.DistToBoundary(V2(0, 0)); !ApproxEq(got, 1, 1e-12) {
		t.Errorf("DistToBoundary center = %v, want 1", got)
	}
	if got := p.DistToBoundary(V2(3, 0)); !ApproxEq(got, 2, 1e-12) {
		t.Errorf("DistToBoundary outside = %v, want 2", got)
	}
}

func TestMinDist(t *testing.T) {
	a := square(0, 0, 1)
	b := square(5, 0, 1)
	if got := a.MinDist(b); !ApproxEq(got, 3, 1e-12) {
		t.Errorf("MinDist = %v, want 3", got)
	}
}

func TestSimplify(t *testing.T) {
	p := Polygon{
		V2(0, 0), V2(0.5, 1e-9), V2(1, 0), // middle vertex collinear
		V2(1, 1), V2(1, 1), // duplicate
		V2(0, 1),
	}
	s := p.Simplify(1e-6)
	if len(s) != 4 {
		t.Fatalf("Simplify len = %d, want 4 (%v)", len(s), s)
	}
	if !ApproxEq(s.Area(), 1, 1e-6) {
		t.Errorf("Simplify changed area: %v", s.Area())
	}
}

func TestTranslatePolygon(t *testing.T) {
	p := square(0, 0, 1).Translate(V2(10, 20))
	if got := p.Centroid(); !got.Eq(V2(10, 20), 1e-12) {
		t.Errorf("translated centroid = %v", got)
	}
}

// Property: area is translation-invariant and negates under reversal.
func TestAreaInvariants(t *testing.T) {
	f := func(coords [8]float64, dx, dy float64) bool {
		p := Polygon{
			V2(clampMag(coords[0]), clampMag(coords[1])),
			V2(clampMag(coords[2]), clampMag(coords[3])),
			V2(clampMag(coords[4]), clampMag(coords[5])),
			V2(clampMag(coords[6]), clampMag(coords[7])),
		}
		a := p.SignedArea()
		scale := 1 + math.Abs(a)
		moved := p.Translate(V2(clampMag(dx), clampMag(dy))).SignedArea()
		rev := p.Reversed().SignedArea()
		return math.Abs(moved-a) <= 1e-4*scale && math.Abs(rev+a) <= 1e-9*scale
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: points reported inside a CCW simple polygon have winding 1, and
// winding is 0 far outside the bounding box.
func TestWindingOutsideBounds(t *testing.T) {
	f := func(cx, cy, r float64) bool {
		cx, cy = clampMag(cx), clampMag(cy)
		r = Clamp(math.Abs(clampMag(r)), 0.1, 1e3)
		p := square(cx, cy, r)
		far := V2(cx+10*r, cy+10*r)
		return p.WindingNumber(far) == 0 && p.WindingNumber(V2(cx, cy)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBounds2ContainsOverlapsDistSq(t *testing.T) {
	b := Bounds2{Min: V2(1, 2), Max: V2(4, 6)}
	for _, p := range []Vec2{V2(1, 2), V2(4, 6), V2(2.5, 4)} {
		if !b.ContainsPoint(p) {
			t.Errorf("ContainsPoint(%v) = false, want true", p)
		}
		if b.DistSq(p) != 0 {
			t.Errorf("DistSq(%v) = %g, want 0 inside", p, b.DistSq(p))
		}
	}
	if b.ContainsPoint(V2(0.99, 4)) || b.ContainsPoint(V2(2, 6.01)) {
		t.Error("ContainsPoint accepted an outside point")
	}
	if got := b.DistSq(V2(-2, 2)); got != 9 {
		t.Errorf("DistSq left = %g, want 9", got)
	}
	if got := b.DistSq(V2(7, 10)); got != 25 {
		t.Errorf("DistSq corner = %g, want 25", got)
	}
	cases := []struct {
		o    Bounds2
		want bool
	}{
		{Bounds2{Min: V2(4, 6), Max: V2(5, 7)}, true},  // shared corner
		{Bounds2{Min: V2(2, 3), Max: V2(3, 4)}, true},  // contained
		{Bounds2{Min: V2(5, 2), Max: V2(6, 6)}, false}, // right of b
		{Bounds2{Min: V2(1, 7), Max: V2(4, 8)}, false}, // above b
	}
	for _, tc := range cases {
		if got := b.Overlaps(tc.o); got != tc.want {
			t.Errorf("Overlaps(%v) = %t, want %t", tc.o, got, tc.want)
		}
		if got := tc.o.Overlaps(b); got != tc.want {
			t.Errorf("Overlaps symmetric (%v) = %t, want %t", tc.o, got, tc.want)
		}
	}
}

// Property: DistSq(q) lower-bounds the squared distance from q to any
// point inside the box — the guarantee the slicer's pruning relies on.
func TestBounds2DistSqLowerBound(t *testing.T) {
	b := Bounds2{Min: V2(-1, -2), Max: V2(3, 1)}
	f := func(qx, qy, tx, ty float64) bool {
		q := V2(math.Mod(qx, 50), math.Mod(qy, 50))
		in := V2(
			b.Min.X+(b.Max.X-b.Min.X)*frac(tx),
			b.Min.Y+(b.Max.Y-b.Min.Y)*frac(ty),
		)
		return b.DistSq(q) <= q.DistSq(in)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func frac(x float64) float64 {
	f := math.Abs(x - math.Trunc(x))
	if math.IsNaN(f) {
		return 0
	}
	return f
}
