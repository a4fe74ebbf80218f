package supplychain

import (
	"context"
	"math"
	"reflect"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mech"
	"obfuscade/internal/mesh"
	"obfuscade/internal/printer"
	"obfuscade/internal/tessellate"
)

// A run on a memoized tessellation — one master built once and handed
// to every run of the same resolution, with or without the CAD bytes
// saved once beside it — must be byte-identical to a run that saves and
// tessellates inline, for every resolution and orientation. Sharing
// trades time and allocations, never content.
func TestMemoizedPipelineByteIdentical(t *testing.T) {
	part := barPart(t)
	cad, err := brep.Save(part)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []tessellate.Resolution{tessellate.Coarse, tessellate.Fine} {
		master, err := tessellate.Tessellate(part, res)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []mech.Orientation{mech.XY, mech.XZ} {
			pl := Pipeline{Resolution: res, Orientation: o, Printer: printer.DimensionElite()}
			want, err := pl.Execute(part)
			if err != nil {
				t.Fatalf("%s/%v inline: %v", res.Name, o, err)
			}
			for _, sharedCAD := range [][]byte{nil, cad} {
				got, err := pl.ExecuteMeshCtx(context.Background(), part, master, sharedCAD)
				if err != nil {
					t.Fatalf("%s/%v shared: %v", res.Name, o, err)
				}
				// Stage wall times are the only fields allowed to differ.
				want.StageSeconds, got.StageSeconds = nil, nil
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%v (shared CAD bytes: %v): run on a shared mesh diverges from the inline run",
						res.Name, o, sharedCAD != nil)
				}
			}
		}
	}
}

// A shared master mesh is read-only: the XZ run rotates its own clone,
// so the master keeps its exact vertex bits and a repeated run on it
// yields the same STL bytes. The quality matrix hands one master to both
// orientations of a key.
func TestMemoizedMeshImmutable(t *testing.T) {
	part := barPart(t)
	master, err := tessellate.Tessellate(part, tessellate.Coarse)
	if err != nil {
		t.Fatal(err)
	}
	before := vertexBits(master)
	pl := Pipeline{Resolution: tessellate.Coarse, Orientation: mech.XZ, Printer: printer.DimensionElite()}
	first, err := pl.ExecuteMeshCtx(context.Background(), part, master, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vertexBits(master), before) {
		t.Fatal("XZ run changed the master mesh")
	}
	again, err := pl.ExecuteMeshCtx(context.Background(), part, master, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(first.STLBytes) != string(again.STLBytes) {
		t.Error("repeated run on the shared mesh changed STL bytes: master was mutated")
	}
}

// A cancelled context stops a run on a shared mesh like any other run.
func TestExecuteMeshCancellation(t *testing.T) {
	part := barPart(t)
	master, err := tessellate.Tessellate(part, tessellate.Coarse)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl := Pipeline{Resolution: tessellate.Coarse, Orientation: mech.XY, Printer: printer.DimensionElite()}
	if _, err := pl.ExecuteMeshCtx(ctx, part, master, nil); err == nil {
		t.Error("cancelled run returned nil error")
	}
}

// vertexBits flattens every vertex coordinate of m to its float bits, so
// a comparison tells -0 from +0 and matches NaN with itself.
func vertexBits(m *mesh.Mesh) []uint64 {
	var out []uint64
	for _, s := range m.Shells {
		for _, tr := range s.Tris {
			for _, v := range []geom.Vec3{tr.A, tr.B, tr.C} {
				out = append(out, math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z))
			}
		}
	}
	return out
}
