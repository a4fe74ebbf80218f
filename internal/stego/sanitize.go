package stego

import (
	"fmt"
	"math"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/stl"
)

// SanitizeReport is the service- and CLI-facing result of sanitizing
// one design file: the detector's verdict before and after, so callers
// see both what the file looked like on arrival and proof the output is
// canonical.
type SanitizeReport struct {
	Version   string  `json:"version"`
	Triangles int     `json:"triangles"`
	Quantum   float64 `json:"quantum"`
	Before    Report  `json:"before"`
	After     Report  `json:"after"`
}

// SanitizeSTL decodes an STL file (binary or ASCII), destroys its stego
// channels, and re-encodes it as binary STL. The output is canonical:
// sanitizing the result again returns identical bytes.
//
// A file with a vertex coordinate that binary STL's float32 cannot carry
// — NaN, ±Inf, or beyond ±math.MaxFloat32, which an ASCII file can spell
// — is rejected, as is a quantum that snaps a coordinate out of that
// range: its output would hold an infinite vertex and a NaN normal, and
// would not sanitize to itself.
func SanitizeSTL(data []byte, opts Options) ([]byte, SanitizeReport, error) {
	opts = opts.withDefaults()
	var rep SanitizeReport
	m, err := stl.Unmarshal(data)
	if err != nil {
		return nil, rep, fmt.Errorf("stego: %w", err)
	}
	if err := checkFloat32Range(m, "input"); err != nil {
		return nil, rep, err
	}
	rep.Version = Version
	rep.Quantum = opts.Quantum
	rep.Before = Detect(m, opts)
	clean := Sanitize(m, opts)
	if err := checkFloat32Range(clean, fmt.Sprintf("quantum %g output", opts.Quantum)); err != nil {
		return nil, rep, err
	}
	rep.After = Detect(clean, opts)
	rep.Triangles = clean.TriangleCount()
	// Write the name the output header decodes to, not the decoded
	// input's (which may hold a NUL, run past 80 bytes or gain a "bin: "
	// prefix), so that sanitizing the output writes the same header.
	name := ""
	if len(clean.Shells) > 0 {
		name = stl.BinaryName(clean.Shells[0].Name)
	}
	if name == "" {
		name = "sanitized"
	}
	out, err := stl.Marshal(clean, stl.Binary, name)
	if err != nil {
		return nil, rep, fmt.Errorf("stego: %w", err)
	}
	return out, rep, nil
}

// checkFloat32Range rejects a mesh with a vertex coordinate that is not
// a finite float32.
func checkFloat32Range(m *mesh.Mesh, what string) error {
	for _, s := range m.Shells {
		for _, t := range s.Tris {
			for _, v := range [3]geom.Vec3{t.A, t.B, t.C} {
				for _, c := range [3]float64{v.X, v.Y, v.Z} {
					if !(math.Abs(c) <= math.MaxFloat32) {
						return fmt.Errorf("stego: %s vertex coordinate %g is not a finite float32", what, c)
					}
				}
			}
		}
	}
	return nil
}
