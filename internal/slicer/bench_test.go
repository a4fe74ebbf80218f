package slicer

import (
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/parallel"
	"obfuscade/internal/tessellate"
)

// Kernel benchmarks: indexed vs naive on the paper's split tensile bar.
// Both run on a 1-worker pool so the comparison isolates the kernels from
// the fan-out; the layers/s metric is what the benchdiff gate tracks.
//
//	go test ./internal/slicer -bench 'BenchmarkSliceKernel' -run '^$' -benchmem

func benchSplitBar(b *testing.B, res tessellate.Resolution) *mesh.Mesh {
	b.Helper()
	p, err := brep.NewTensileBar("bar", brep.DefaultTensileBar())
	if err != nil {
		b.Fatal(err)
	}
	s, err := brep.SplitSplineThroughGauge(brep.DefaultTensileBar(), 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	if err := brep.SplitBySpline(p, "bar", s); err != nil {
		b.Fatal(err)
	}
	m, err := tessellate.Tessellate(p, res)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkSliceKernelIndexed(b *testing.B) {
	m := benchSplitBar(b, tessellate.Fine)
	parallel.SetDefault(1)
	defer parallel.SetDefault(0)
	opts := DefaultOptions()
	var layers int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Slice(m, opts)
		if err != nil {
			b.Fatal(err)
		}
		layers = len(res.Layers)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(layers*b.N)/sec, "layers/s")
	}
}

func BenchmarkSliceKernelNaive(b *testing.B) {
	m := benchSplitBar(b, tessellate.Fine)
	opts := DefaultOptions()
	var layers int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sliceNaive(m, opts)
		if err != nil {
			b.Fatal(err)
		}
		layers = len(res.Layers)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(layers*b.N)/sec, "layers/s")
	}
}

// Rasterizer benchmarks on a mid-gauge layer of the split bar; allocs/op
// is the headline number (the bucketed version reuses pooled scratch).
//
//	go test ./internal/slicer -bench 'BenchmarkRasterize' -run '^$' -benchmem

func benchRasterLayer(b *testing.B) (*Layer, geom.Vec2, geom.Vec2, []string) {
	b.Helper()
	m := benchSplitBar(b, tessellate.Fine)
	res, err := Slice(m, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	l := &res.Layers[len(res.Layers)/2]
	bd := res.Bounds
	return l, geom.V2(bd.Min.X-1, bd.Min.Y-1), geom.V2(bd.Max.X+1, bd.Max.Y+1), res.BodyNames
}

func BenchmarkRasterize(b *testing.B) {
	l, min, max, bodies := benchRasterLayer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Rasterize(min, max, 0.25, bodies); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRasterizeNaive(b *testing.B) {
	l, min, max, bodies := benchRasterLayer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rasterizeNaive(l, min, max, 0.25, bodies); err != nil {
			b.Fatal(err)
		}
	}
}

// Interface-probe benchmarks: the per-layer seam probe (winding lookups,
// nearest-boundary search, crossing count) over every layer of the split
// bar sliced x-z, where the seam crosses every layer.
//
//	go test ./internal/slicer -bench 'BenchmarkProbeInterface' -run '^$' -benchmem

func benchProbeLayers(b *testing.B) ([]Layer, Options) {
	b.Helper()
	m := benchSplitBar(b, tessellate.Fine)
	orientXZ(m)
	opts := DefaultOptions()
	res, err := Slice(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.Layers, opts
}

var probeSink []BodyInterface

func benchProbe(b *testing.B, find func(*Layer, Options) []BodyInterface) {
	layers, opts := benchProbeLayers(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for li := range layers {
			probeSink = find(&layers[li], opts)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(len(layers)*b.N)/sec, "layers/s")
	}
}

func BenchmarkProbeInterface(b *testing.B)      { benchProbe(b, findInterfaces) }
func BenchmarkProbeInterfaceNaive(b *testing.B) { benchProbe(b, findInterfacesNaive) }
