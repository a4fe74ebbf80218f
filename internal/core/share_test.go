package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"unsafe"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/obs"
	"obfuscade/internal/parallel"
	"obfuscade/internal/printer"
	"obfuscade/internal/slicer"
)

// The matrix shares one tessellation between the two orientations of a
// (resolution, CAD op) group. Sharing must not change any artifact: every
// entry, at any pool size, carries the STL digest and grade that a
// standalone ManufactureCtx of its key produces.
func TestMatrixMatchesStandaloneManufacture(t *testing.T) {
	prof := printer.DimensionElite()
	for _, name := range []string{"bar", "bar-sphere", "double-bar", "prism"} {
		prot, err := BuildProtected(name)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		for _, k := range AllKeys(prot) {
			res, err := ManufactureCtx(context.Background(), prot, k, prof)
			if err != nil {
				t.Fatalf("%s %v: %v", name, k, err)
			}
			sum := sha256.Sum256(res.Run.STLBytes)
			want[k.String()] = hex.EncodeToString(sum[:]) + " " + res.Quality.Grade.String()
		}
		for _, workers := range []int{1, 8} {
			entries, err := QualityMatrixWorkers(prot, prof, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for _, e := range entries {
				got := e.Provenance.STLSHA256 + " " + e.Quality.Grade.String()
				if got != want[e.Key.String()] {
					t.Errorf("%s workers=%d %v: matrix %s, standalone %s",
						name, workers, e.Key, got, want[e.Key.String()])
				}
			}
		}
	}
}

// Each key has exactly one sibling that differs only in orientation, and
// the pair tessellates once.
func TestMatrixTessellatesOncePerOrientationPair(t *testing.T) {
	prof := printer.DimensionElite()
	for _, name := range []string{"bar", "bar-sphere"} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				prot, err := BuildProtected(name)
				if err != nil {
					t.Fatal(err)
				}
				obs.Default().Reset()
				defer obs.Default().Reset()
				entries, err := QualityMatrixWorkers(prot, prof, workers)
				if err != nil {
					t.Fatal(err)
				}
				h, _ := obs.Default().Snapshot().Stage("tessellate.mesh.seconds")
				if want := int64(len(entries) / 2); h.Count != want {
					t.Errorf("tessellate.mesh count = %d, want %d (one per orientation pair of %d keys)",
						h.Count, want, len(entries))
				}
			})
		}
	}
}

// groupRun is what the group-sharing tests keep of one key's run.
type groupRun struct {
	key    Key
	cad    []byte
	sliced *slicer.Result
}

// manufactureGroups runs every key of a design through manufacture on a
// pool of 8, sharing work per group exactly as QualityMatrixWorkers does.
func manufactureGroups(t *testing.T, prot *Protected, prof printer.Profile) []groupRun {
	t.Helper()
	keys := AllKeys(prot)
	shared := shareGroups(keys)
	runs := make([]groupRun, len(keys))
	err := parallel.ForEachCtx(context.Background(), len(keys), 8, func(ctx context.Context, i int) error {
		res, err := manufacture(ctx, prot, keys[i], prof, shared[i])
		if err != nil {
			return err
		}
		runs[i] = groupRun{key: keys[i], cad: res.Run.CADBytes, sliced: res.Run.Sliced}
		res.Run.Build.Grid.Release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// Each (resolution, CAD op) group saves its CAD file once, shared by both
// orientations, and every key still runs on exactly the bytes a
// standalone save of its keyed part gives.
func TestMatrixSavesCADOncePerGroup(t *testing.T) {
	prof := printer.DimensionElite()
	for _, name := range []string{"bar", "bar-sphere", "double-bar", "prism"} {
		prot, err := BuildProtected(name)
		if err != nil {
			t.Fatal(err)
		}
		saves := map[*byte]bool{}
		runs := manufactureGroups(t, prot, prof)
		for _, r := range runs {
			part, err := ApplyKey(prot, r.key)
			if err != nil {
				t.Fatal(err)
			}
			want, err := brep.Save(part)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.cad, want) {
				t.Errorf("%s %v: CAD bytes differ from brep.Save(ApplyKey(prot, key))", name, r.key)
			}
			saves[unsafe.SliceData(r.cad)] = true
		}
		if want := len(runs) / 2; len(saves) != want {
			t.Errorf("%s: %d CAD saves for %d keys, want %d (one per orientation pair)", name, len(saves), len(runs), want)
		}
	}
}

// The printer deposits each layer from slicer.Layer.ModelRuns instead of
// a dense raster. On every layer of every key of the four designs, at
// both printer cell sizes (the road width and the default half of it)
// and over the printer's padded bounds shifted off the cell grid, the
// runs cover exactly the cells Rasterize classifies Model.
func TestModelRunsMatchRasterizeEveryKey(t *testing.T) {
	prof := printer.DimensionElite()
	keys := 0
	for _, name := range []string{"bar", "bar-sphere", "double-bar", "prism"} {
		prot, err := BuildProtected(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range manufactureGroups(t, prot, prof) {
			keys++
			for _, cell := range []float64{prof.RoadWidth, prof.RoadWidth / 2} {
				for _, shift := range []float64{0, 0.37 * cell} {
					b := r.sliced.Bounds
					min := geom.V2(b.Min.X-cell-shift, b.Min.Y-cell+shift)
					max := geom.V2(b.Max.X+cell+shift, b.Max.Y+cell)
					for li := range r.sliced.Layers {
						if err := sameModelCells(&r.sliced.Layers[li], min, max, cell); err != nil {
							t.Fatalf("%s %v layer %d cell %g shift %g: %v", name, r.key, li, cell, shift, err)
						}
					}
				}
			}
		}
	}
	if keys != 36 {
		t.Errorf("checked %d keys, want the 36 of the four designs", keys)
	}
}

// sameModelCells compares l.ModelRuns with l.Rasterize's Model cells.
func sameModelCells(l *slicer.Layer, min, max geom.Vec2, cell float64) error {
	r, err := l.Rasterize(min, max, cell, nil)
	if err != nil {
		return err
	}
	got := make([]bool, r.NX*r.NY)
	if err := l.ModelRuns(min, max, cell, func(iy, x0, x1 int) {
		for ix := x0; ix < x1; ix++ {
			got[iy*r.NX+ix] = true
		}
	}); err != nil {
		return err
	}
	for i, c := range r.Class {
		if got[i] != (c == slicer.Model) {
			return fmt.Errorf("cell (%d, %d): runs say model=%v, raster class %d", i%r.NX, i/r.NX, got[i], c)
		}
	}
	return nil
}
