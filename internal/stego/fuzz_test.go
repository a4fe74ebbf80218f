package stego

import (
	"bytes"
	"math"
	"testing"

	"obfuscade/internal/stl"
)

// Native fuzz target for SanitizeSTL, which reads uploads from outside
// the process (POST /sanitize, obfuscade sanitize). Invariants, for any
// input:
//   - SanitizeSTL never panics;
//   - when it accepts the input, sanitizing its output again gives
//     identical bytes and the same triangle count;
//   - every coordinate of the output decodes finite.
//
// The seed corpus in testdata/fuzz/FuzzSanitizeSTL holds a box as binary
// and as ASCII STL, the ASCII upload whose 1e100 coordinate once
// sanitized to an infinite vertex, and the one whose NUL solid name once
// re-sanitized to a different header. Run with
// `go test -run='^$' -fuzz=FuzzSanitizeSTL -fuzzminimizetime=2s ./internal/stego`.
func FuzzSanitizeSTL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		out, rep, err := SanitizeSTL(data, Options{})
		if err != nil {
			return
		}
		again, rep2, err := SanitizeSTL(out, Options{})
		if err != nil {
			t.Fatalf("sanitized output is rejected: %v", err)
		}
		if !bytes.Equal(again, out) {
			t.Fatalf("re-sanitizing changes the bytes:\n%x\n%x", out, again)
		}
		if rep2.Triangles != rep.Triangles {
			t.Fatalf("re-sanitizing changes the triangle count: %d -> %d", rep.Triangles, rep2.Triangles)
		}
		m, err := stl.Unmarshal(out)
		if err != nil {
			t.Fatalf("sanitized output does not decode: %v", err)
		}
		for _, tri := range m.AllTriangles() {
			for _, c := range [9]float64{tri.A.X, tri.A.Y, tri.A.Z, tri.B.X, tri.B.Y, tri.B.Z, tri.C.X, tri.C.Y, tri.C.Z} {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					t.Fatalf("sanitized output holds a non-finite coordinate %v", c)
				}
			}
		}
	})
}
