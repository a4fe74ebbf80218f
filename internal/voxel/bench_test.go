package voxel

import (
	"testing"

	"obfuscade/internal/geom"
)

// Cavity-search benchmarks on a printed-bar-sized grid: a solid slab with
// an empty margin (the exterior) and a washed-out spherical cavity, the
// shape the CT-style authentication check grades. InternalCavities fills
// the exterior once; the reference labels every empty component and
// filters.
//
//	go test ./internal/voxel -bench 'BenchmarkInternalCavities' -run '^$' -benchmem

func benchCavityGrid(b *testing.B) *Grid {
	b.Helper()
	g, err := NewGrid(geom.AABB{Max: geom.V3(199.5, 59.5, 39.5)}, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	fillBox(g, [3]int{4, 4, 4}, [3]int{g.NX - 5, g.NY - 5, g.NZ - 5}, Model)
	c := geom.V3(100, 30, 20)
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				if g.Center(x, y, z).Sub(c).Len() < 8 {
					g.Set(x, y, z, Empty)
				}
			}
		}
	}
	return g
}

var cavitySink []Component

func benchCavities(b *testing.B, find func(*Grid) []Component) {
	g := benchCavityGrid(b)
	if n := len(find(g)); n != 1 {
		b.Fatalf("%d cavities, want 1", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cavitySink = find(g)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(len(g.cells)*b.N)/sec/1e6, "Mvoxels/s")
	}
}

func BenchmarkInternalCavities(b *testing.B) { benchCavities(b, (*Grid).InternalCavities) }
func BenchmarkInternalCavitiesReference(b *testing.B) {
	benchCavities(b, cavitiesByFilter)
}
