package gcode

import (
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/parallel"
	"obfuscade/internal/slicer"
	"obfuscade/internal/tessellate"
)

// Kernel benchmarks on the paper's split tensile bar at the Custom STL
// resolution, the protected key's toolpaths. allocs/op is the figure to
// watch: a command that allocates shows here at once.
//
//	go test ./internal/gcode -bench . -run '^$' -benchmem

func benchBarToolpaths(b *testing.B) []*slicer.LayerToolpath {
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
	m, err := tessellate.Tessellate(p, tessellate.Custom)
	if err != nil {
		b.Fatal(err)
	}
	parallel.SetDefault(1)
	defer parallel.SetDefault(0)
	res, err := slicer.Slice(m, slicer.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	paths, err := res.Toolpaths()
	if err != nil {
		b.Fatal(err)
	}
	return paths
}

func BenchmarkGenerate(b *testing.B) {
	paths := benchBarToolpaths(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate("bar", paths, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulate(b *testing.B) {
	prog, err := Generate("bar", benchBarToolpaths(b), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	env := DimensionEliteEnvelope()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(prog, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	prog, err := Generate("bar", benchBarToolpaths(b), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(prog); err != nil {
			b.Fatal(err)
		}
	}
}
