package voxel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"obfuscade/internal/geom"
)

func newTestGrid(t *testing.T, nx, ny, nz int) *Grid {
	t.Helper()
	g, err := NewGrid(geom.AABB{
		Min: geom.V3(0, 0, 0),
		Max: geom.V3(float64(nx)-0.5, float64(ny)-0.5, float64(nz)-0.5),
	}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != nx || g.NY != ny || g.NZ != nz {
		t.Fatalf("grid dims %dx%dx%d, want %dx%dx%d", g.NX, g.NY, g.NZ, nx, ny, nz)
	}
	return g
}

func TestNewGridErrors(t *testing.T) {
	b := geom.AABB{Min: geom.V3(0, 0, 0), Max: geom.V3(1, 1, 1)}
	if _, err := NewGrid(b, 0, 1); err == nil {
		t.Error("expected error for zero cell")
	}
	if _, err := NewGrid(b, 1, -1); err == nil {
		t.Error("expected error for negative cellZ")
	}
	huge := geom.AABB{Min: geom.V3(0, 0, 0), Max: geom.V3(1e5, 1e5, 1e5)}
	if _, err := NewGrid(huge, 0.1, 0.1); err == nil {
		t.Error("expected error for oversized grid")
	}
}

func TestSetAtBounds(t *testing.T) {
	g := newTestGrid(t, 4, 4, 4)
	g.Set(1, 2, 3, Model)
	if g.At(1, 2, 3) != Model {
		t.Error("Set/At round trip failed")
	}
	if g.At(-1, 0, 0) != Empty || g.At(9, 0, 0) != Empty {
		t.Error("out-of-grid reads should be Empty")
	}
	g.Set(-1, 0, 0, Model) // must not panic
	if g.Count(Model) != 1 {
		t.Errorf("Count = %d, want 1", g.Count(Model))
	}
}

func TestVolumeAndReplace(t *testing.T) {
	g := newTestGrid(t, 3, 3, 3)
	g.Set(0, 0, 0, Support)
	g.Set(1, 1, 1, Support)
	if got := g.Volume(Support); !geom.ApproxEq(got, 2, 1e-12) {
		t.Errorf("Volume = %v", got)
	}
	if n := g.Replace(Support, Empty); n != 2 {
		t.Errorf("Replace = %d, want 2", n)
	}
	if g.Count(Support) != 0 {
		t.Error("support not washed out")
	}
}

func TestLocateCenterInverse(t *testing.T) {
	g := newTestGrid(t, 5, 5, 5)
	for _, v := range [][3]int{{0, 0, 0}, {4, 3, 2}, {1, 4, 4}} {
		c := g.Center(v[0], v[1], v[2])
		x, y, z := g.Locate(c)
		if x != v[0] || y != v[1] || z != v[2] {
			t.Errorf("Locate(Center(%v)) = (%d,%d,%d)", v, x, y, z)
		}
	}
}

func fillBox(g *Grid, min, max [3]int, m Material) {
	for z := min[2]; z <= max[2]; z++ {
		for y := min[1]; y <= max[1]; y++ {
			for x := min[0]; x <= max[0]; x++ {
				g.Set(x, y, z, m)
			}
		}
	}
}

func TestComponentsAndCavities(t *testing.T) {
	g := newTestGrid(t, 10, 10, 10)
	// A solid block with a 2x2x2 internal void.
	fillBox(g, [3]int{1, 1, 1}, [3]int{8, 8, 8}, Model)
	fillBox(g, [3]int{4, 4, 4}, [3]int{5, 5, 5}, Empty)

	comps := g.Components(Model)
	if len(comps) != 1 {
		t.Fatalf("model components = %d, want 1", len(comps))
	}
	if comps[0].Voxels != 8*8*8-8 {
		t.Errorf("model voxels = %d", comps[0].Voxels)
	}
	cavities := g.InternalCavities()
	if len(cavities) != 1 {
		t.Fatalf("cavities = %d, want 1", len(cavities))
	}
	if cavities[0].Voxels != 8 {
		t.Errorf("cavity voxels = %d, want 8", cavities[0].Voxels)
	}
	if cavities[0].TouchesBoundary {
		t.Error("internal cavity must not touch boundary")
	}
	wb := cavities[0].BoundsWorld(g)
	if !geom.ApproxEq(wb.Size().X, 2, 1e-9) {
		t.Errorf("cavity world size = %v", wb.Size())
	}
	// Porosity: 8 void / (504 model + 8 void).
	want := 8.0 / 512.0
	if got := g.Porosity(); math.Abs(got-want) > 1e-12 {
		t.Errorf("porosity = %v, want %v", got, want)
	}
}

func TestComponentsSeparate(t *testing.T) {
	g := newTestGrid(t, 10, 4, 4)
	fillBox(g, [3]int{0, 0, 0}, [3]int{2, 3, 3}, Model)
	fillBox(g, [3]int{6, 0, 0}, [3]int{9, 3, 3}, Model)
	comps := g.Components(Model)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if comps[0].Voxels < comps[1].Voxels {
		t.Error("components not sorted by size")
	}
	if !comps[0].TouchesBoundary {
		t.Error("boundary block should touch boundary")
	}
}

func TestDiagonalNotConnected(t *testing.T) {
	g := newTestGrid(t, 4, 4, 4)
	g.Set(0, 0, 0, Model)
	g.Set(1, 1, 0, Model) // diagonal neighbour: 6-connectivity keeps apart
	if got := len(g.Components(Model)); got != 2 {
		t.Errorf("diagonal components = %d, want 2", got)
	}
}

func TestCrossSectionArea(t *testing.T) {
	g := newTestGrid(t, 6, 5, 4)
	fillBox(g, [3]int{2, 0, 0}, [3]int{3, 4, 3}, Model)
	if got := g.CrossSectionArea(2); !geom.ApproxEq(got, 20, 1e-12) {
		t.Errorf("cross-section = %v, want 20", got)
	}
	if got := g.CrossSectionArea(0); got != 0 {
		t.Errorf("empty cross-section = %v", got)
	}
	if got := g.CrossSectionArea(-1); got != 0 {
		t.Errorf("out-of-range cross-section = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := newTestGrid(t, 3, 3, 3)
	g.Set(0, 0, 0, Model)
	c := g.Clone()
	c.Set(0, 0, 0, Empty)
	if g.At(0, 0, 0) != Model {
		t.Error("Clone should not share storage")
	}
}

func TestMaterialString(t *testing.T) {
	if Empty.String() != "empty" || Model.String() != "model" || Support.String() != "support" {
		t.Error("Material.String misbehaves")
	}
}

func TestPorosityNoModel(t *testing.T) {
	g := newTestGrid(t, 3, 3, 3)
	if g.Porosity() != 0 {
		t.Error("empty grid porosity should be 0")
	}
}

// cavitiesByFilter is the reference InternalCavities: label every empty
// component, keep those that do not touch the grid boundary.
func cavitiesByFilter(g *Grid) []Component {
	var out []Component
	for _, c := range g.Components(Empty) {
		if !c.TouchesBoundary {
			out = append(out, c)
		}
	}
	return out
}

// Property: the exterior-fill InternalCavities returns exactly the
// filtered Components(Empty) list — seeds, bounds, counts and order — on
// random grids, including grids one voxel thick on some axis and grids
// whose cavities tie in size.
func TestInternalCavitiesMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(0xcab1))
	for trial := 0; trial < 400; trial++ {
		nx, ny, nz := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		if trial%4 == 0 {
			// One voxel thick along a random axis.
			switch rng.Intn(3) {
			case 0:
				nx = 1
			case 1:
				ny = 1
			default:
				nz = 1
			}
		}
		g := newTestGrid(t, nx, ny, nz)
		density := rng.Float64()
		for i := range g.cells {
			switch r := rng.Float64(); {
			case r < density:
				g.cells[i] = Model
			case r < density+(1-density)/4:
				g.cells[i] = Support
			}
		}
		want := cavitiesByFilter(g)
		if got := g.InternalCavities(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%dx%dx%d): InternalCavities\n%+v\nwant\n%+v", trial, nx, ny, nz, got, want)
		}
	}
}
