package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec2Basics(t *testing.T) {
	a := V2(3, 4)
	b := V2(-1, 2)
	if got := a.Add(b); got != V2(2, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V2(4, 2) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := a.Dot(b); got != 5 {
		t.Errorf("Dot = %v, want 5", got)
	}
	if got := a.Cross(b); got != 10 {
		t.Errorf("Cross = %v, want 10", got)
	}
	if got := a.Normalized().Len(); !ApproxEq(got, 1, 1e-12) {
		t.Errorf("Normalized length = %v", got)
	}
	if got := V2(0, 0).Normalized(); got != V2(0, 0) {
		t.Errorf("zero Normalized = %v", got)
	}
}

func TestVec2Perp(t *testing.T) {
	a := V2(2, 1)
	p := a.Perp()
	if !ApproxEq(a.Dot(p), 0, 1e-15) {
		t.Errorf("Perp not orthogonal: %v", a.Dot(p))
	}
	if a.Cross(p) <= 0 {
		t.Errorf("Perp should rotate CCW")
	}
}

func TestVec3Basics(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, 5, 6)
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	c := a.Cross(b)
	if !ApproxEq(c.Dot(a), 0, 1e-12) || !ApproxEq(c.Dot(b), 0, 1e-12) {
		t.Errorf("Cross not orthogonal: %v", c)
	}
	if got := V3(3, 4, 12).Len(); got != 13 {
		t.Errorf("Len = %v, want 13", got)
	}
	if got := a.Lerp(b, 0.5); !got.Eq(V3(2.5, 3.5, 4.5), 1e-12) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestVec3MinMaxAbs(t *testing.T) {
	a := V3(1, -5, 3)
	b := V3(-2, 4, 3)
	if got := a.Min(b); got != V3(-2, -5, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V3(1, 4, 3) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Abs(); got != V3(1, 5, 3) {
		t.Errorf("Abs = %v", got)
	}
}

func TestVec3Angle(t *testing.T) {
	if got := V3(1, 0, 0).Angle(V3(0, 1, 0)); !ApproxEq(got, math.Pi/2, 1e-12) {
		t.Errorf("Angle = %v", got)
	}
	if got := V3(1, 1, 0).Angle(V3(2, 2, 0)); !ApproxEq(got, 0, 1e-7) {
		t.Errorf("parallel Angle = %v", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

// Property: cross product is anti-commutative and orthogonal to operands.
func TestCrossProperties(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3(clampMag(ax), clampMag(ay), clampMag(az))
		b := V3(clampMag(bx), clampMag(by), clampMag(bz))
		c := a.Cross(b)
		d := b.Cross(a)
		scale := math.Max(1, a.Len()*b.Len())
		return c.Add(d).Len() <= 1e-9*scale &&
			math.Abs(c.Dot(a)) <= 1e-6*scale*scale &&
			math.Abs(c.Dot(b)) <= 1e-6*scale*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |a·b| <= |a||b| (Cauchy-Schwarz).
func TestDotCauchySchwarz(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3(clampMag(ax), clampMag(ay), clampMag(az))
		b := V3(clampMag(bx), clampMag(by), clampMag(bz))
		return math.Abs(a.Dot(b)) <= a.Len()*b.Len()*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampMag maps arbitrary quick-generated floats into a sane range so the
// properties are not destroyed by overflow to Inf.
func clampMag(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	return Clamp(v, -1e6, 1e6)
}

// Vec3.Min/Max, AABB.Extend and the polygon bounds take the builtin
// min/max for non-NaN operands and math.Min/math.Max otherwise. Pin that
// they give math.Min/math.Max's results bit for bit on every pair drawn
// from {±0, ±1, ±Inf, NaN} — NaN of either sign — in every component.
func TestVec3MinMaxMatchMath(t *testing.T) {
	nan := math.NaN()
	vals := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), nan, math.Copysign(nan, -1)}
	for _, x := range vals {
		for _, y := range vals {
			a, b := V3(x, -y, y), V3(y, x, -x)
			gotMin, gotMax := a.Min(b), a.Max(b)
			wantMin := V3(math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z))
			wantMax := V3(math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z))
			if vecBits(gotMin) != vecBits(wantMin) {
				t.Errorf("%v.Min(%v) = %v, math.Min gives %v", a, b, gotMin, wantMin)
			}
			if vecBits(gotMax) != vecBits(wantMax) {
				t.Errorf("%v.Max(%v) = %v, math.Max gives %v", a, b, gotMax, wantMax)
			}
			box := AABB{Min: a, Max: a}
			box.Extend(b)
			if vecBits(box.Min) != vecBits(wantMin) || vecBits(box.Max) != vecBits(wantMax) {
				t.Errorf("box at %v extended by %v = %v, math.Min/Max give %v, %v", a, b, box, wantMin, wantMax)
			}
			p := Polygon{a.XY(), b.XY()}.Bounds()
			if vecBits(V3(p.Min.X, p.Min.Y, 0)) != vecBits(V3(wantMin.X, wantMin.Y, 0)) ||
				vecBits(V3(p.Max.X, p.Max.Y, 0)) != vecBits(V3(wantMax.X, wantMax.Y, 0)) {
				t.Errorf("bounds of %v, %v = %v, math.Min/Max give %v, %v", a.XY(), b.XY(), p, wantMin, wantMax)
			}
		}
	}
}

func vecBits(v Vec3) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}
