package printer

import (
	"context"
	"testing"

	"obfuscade/internal/tessellate"
)

// BenchmarkPrint is the virtual print of the split tensile bar on edge
// (x-z, about 110 layers): per-layer deposit from the slicer's Model
// runs, then healing, support generation and wash-out. The grid goes
// back to the pool after each build, as the quality matrix returns it.
//
//	go test ./internal/printer -bench 'BenchmarkPrint' -run '^$' -benchmem
func BenchmarkPrint(b *testing.B) {
	sliced := sliceSplitBar(b, tessellate.Fine, true)
	prof := DimensionElite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build, err := PrintCtx(context.Background(), sliced, prof, Options{})
		if err != nil {
			b.Fatal(err)
		}
		build.Grid.Release()
	}
}
