package voxel

import (
	"reflect"
	"sync"
	"testing"

	"obfuscade/internal/geom"
)

func testBounds() geom.AABB {
	return geom.AABB{Min: geom.V3(0, 0, 0), Max: geom.V3(4, 3, 2)}
}

// Recycled grids must come back fully zeroed: a dirty freelist would
// materialise phantom voxels in the next build.
func TestGridReleaseRecyclesZeroed(t *testing.T) {
	g, err := NewGrid(testBounds(), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < g.NX; x++ {
		g.Set(x, 1, 1, Model)
	}
	g.Release()
	if g.cells != nil {
		t.Fatal("Release left cells attached")
	}
	g.Release() // double release is a no-op
	ng, err := NewGrid(testBounds(), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n := ng.Count(Model) + ng.Count(Support); n != 0 {
		t.Fatalf("recycled grid has %d stale voxels", n)
	}
}

// Using a released grid must fail loudly, not read recycled memory.
func TestReleasedGridPanics(t *testing.T) {
	g, err := NewGrid(testBounds(), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	defer func() {
		if recover() == nil {
			t.Error("Set on a released grid did not panic")
		}
	}()
	g.Set(0, 0, 0, Model)
}

// InternalCavities keeps all its working state per call: repeated calls
// on one grid from many goroutines return identical cavity lists (tier-2
// runs this with -race).
func TestInternalCavitiesConcurrent(t *testing.T) {
	g, err := NewGrid(geom.AABB{Min: geom.V3(0, 0, 0), Max: geom.V3(10, 10, 10)}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Solid block with two internal cavities of different sizes.
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				g.Set(x, y, z, Model)
			}
		}
	}
	g.Set(2, 2, 2, Empty)
	g.Set(5, 5, 5, Empty)
	g.Set(5, 5, 6, Empty)

	want := g.InternalCavities()
	if len(want) != 2 || want[0].Voxels != 2 || want[1].Voxels != 1 {
		t.Fatalf("unexpected baseline cavities: %+v", want)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				if got := g.InternalCavities(); !reflect.DeepEqual(got, want) {
					t.Errorf("worker %d: cavities %+v, want %+v", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Clone must allocate independent storage even when drawing from the
// freelist, and a released clone must not corrupt the original.
func TestCloneIndependentOfFreelist(t *testing.T) {
	g, err := NewGrid(testBounds(), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(1, 1, 1, Model)
	c := g.Clone()
	c.Set(1, 1, 1, Support)
	if g.At(1, 1, 1) != Model {
		t.Fatal("clone shares storage with original")
	}
	c.Release()
	if g.At(1, 1, 1) != Model {
		t.Fatal("releasing the clone corrupted the original")
	}
}
