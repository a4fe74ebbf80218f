package slicer

import (
	"math/rand"
	"testing"

	"obfuscade/internal/geom"
	"obfuscade/internal/mech"
	"obfuscade/internal/parallel"
	"obfuscade/internal/tessellate"
)

// checkModelRuns asserts that ModelRuns reports exactly the cells that
// Rasterize over the same bounds and cell size classifies Model, as
// maximal runs inside the grid, rows ascending and runs left to right.
func checkModelRuns(t *testing.T, what string, l *Layer, min, max geom.Vec2, cell float64) {
	t.Helper()
	r, err := l.Rasterize(min, max, cell, nil)
	if err != nil {
		t.Fatalf("%s: Rasterize: %v", what, err)
	}
	got := make([]bool, r.NX*r.NY)
	lastY, lastX1 := -1, -1
	err = l.ModelRuns(min, max, cell, func(iy, x0, x1 int) {
		if iy < 0 || iy >= r.NY || x0 < 0 || x1 > r.NX || x0 >= x1 {
			t.Fatalf("%s: run (%d, [%d, %d)) outside the %dx%d grid or empty", what, iy, x0, x1, r.NX, r.NY)
		}
		switch {
		case iy < lastY:
			t.Fatalf("%s: row %d reported after row %d", what, iy, lastY)
		case iy == lastY && x0 <= lastX1:
			t.Fatalf("%s: row %d: run [%d, %d) does not follow the previous run ending at %d", what, iy, x0, x1, lastX1)
		}
		lastY, lastX1 = iy, x1
		for ix := x0; ix < x1; ix++ {
			got[iy*r.NX+ix] = true
		}
	})
	if err != nil {
		t.Fatalf("%s: ModelRuns: %v", what, err)
	}
	for iy := 0; iy < r.NY; iy++ {
		for ix := 0; ix < r.NX; ix++ {
			if want := r.At(ix, iy) == Model; got[iy*r.NX+ix] != want {
				t.Fatalf("%s: cell (%d, %d): runs say model=%v, raster class %d", what, ix, iy, got[iy*r.NX+ix], r.At(ix, iy))
			}
		}
	}
}

// ModelRuns equals Rasterize's Model cells on every layer of the split
// bar in both print orientations, at the printer's two cell sizes (the
// FDM road width and half of it) and a random one, over bounds that sit
// off the vertex grid.
func TestModelRunsMatchRasterizeSplitBar(t *testing.T) {
	rng := rand.New(rand.NewSource(parallel.SplitMix(0x52a5, 0)))
	opts := DefaultOptions()
	for _, o := range []mech.Orientation{mech.XY, mech.XZ} {
		m := buildSplitBar(t, tessellate.Coarse)
		if o == mech.XZ {
			orientXZ(m)
		}
		res, err := Slice(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		b := res.Bounds
		for _, cell := range []float64{opts.RoadWidth, opts.RoadWidth / 2, 0.1 + rng.Float64()*0.5} {
			min := geom.V2(b.Min.X-1-rng.Float64()*cell, b.Min.Y-1-rng.Float64()*cell)
			max := geom.V2(b.Max.X+1+rng.Float64()*cell, b.Max.Y+1+rng.Float64()*cell)
			for li := range res.Layers {
				checkModelRuns(t, o.String(), &res.Layers[li], min, max, cell)
			}
		}
	}
}

// The same on randomized multi-box meshes, whose overlapping bodies give
// doubly covered (even winding) regions inside model material.
func TestModelRunsMatchRasterizeRandomMeshes(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(parallel.SplitMix(0x52a6, trial)))
		res, err := Slice(randomBoxMesh(rng), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b := res.Bounds
		min := geom.V2(b.Min.X-rng.Float64(), b.Min.Y-rng.Float64())
		max := geom.V2(b.Max.X+rng.Float64(), b.Max.Y+rng.Float64())
		cell := 0.1 + rng.Float64()*0.5
		for li := range res.Layers {
			checkModelRuns(t, "random mesh", &res.Layers[li], min, max, cell)
		}
	}
}

// Hand-built layers put crossings exactly on cell centres — where
// Rasterize's "crossing at or left of the centre" rule decides — and
// mix in an open contour, which neither consumer deposits, a clockwise
// loop (negative winding) and a doubly covered overlap.
func TestModelRunsCrossingsOnCellCentres(t *testing.T) {
	square := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.Polygon{geom.V2(x0, y0), geom.V2(x1, y0), geom.V2(x1, y1), geom.V2(x0, y1)}
	}
	reversed := func(p geom.Polygon) geom.Polygon {
		out := make(geom.Polygon, len(p))
		for i, v := range p {
			out[len(p)-1-i] = v
		}
		return out
	}
	// Cell 0.5 from origin 0: centres at 0.25, 0.75, 1.25, ...
	l := &Layer{Contours: []Contour{
		{Poly: square(0.25, 0.25, 2.75, 2.25), Body: "a", Closed: true},
		{Poly: reversed(square(0.75, 0.75, 1.25, 1.75)), Body: "a", Closed: true},           // hole, edges on centres
		{Poly: square(2.25, 1.25, 3.75, 3.25), Body: "b", Closed: true},                     // overlaps a: winding 2
		{Poly: reversed(square(4.25, 0.25, 4.75, 1.75)), Body: "c", Closed: true},           // clockwise only
		{Poly: geom.Polygon{geom.V2(0.25, 3.75), geom.V2(4.75, 0.25), geom.V2(4.75, 3.75)}}, // open
		{Poly: geom.Polygon{geom.V2(1.25, 2.75), geom.V2(1.75, 3.25), geom.V2(1.25, 3.75)}, Closed: true},
	}}
	for _, tc := range []struct {
		name     string
		min, max geom.Vec2
		cell     float64
	}{
		{"on-grid", geom.V2(0, 0), geom.V2(5, 4), 0.5},
		{"half cell", geom.V2(0, 0), geom.V2(5, 4), 0.25},
		{"off-grid", geom.V2(-0.13, 0.07), geom.V2(5.3, 4.1), 0.5},
		{"coarse", geom.V2(-1, -1), geom.V2(6, 5), 1},
	} {
		checkModelRuns(t, tc.name, l, tc.min, tc.max, tc.cell)
	}
}

// ModelRuns rejects the requests Rasterize rejects.
func TestModelRunsErrors(t *testing.T) {
	var l Layer
	noop := func(int, int, int) {}
	if err := l.ModelRuns(geom.V2(0, 0), geom.V2(1, 1), 0, noop); err == nil {
		t.Error("zero cell accepted")
	}
	if err := l.ModelRuns(geom.V2(1, 1), geom.V2(0, 0), 0.1, noop); err == nil {
		t.Error("inverted bounds accepted")
	}
}
