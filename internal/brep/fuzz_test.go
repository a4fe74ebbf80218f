package brep

import (
	"bytes"
	"testing"
)

// Native fuzz target for the .ocad decoder, which reads design files
// from outside the process (amsim -cad). Invariants, for any input:
//   - Load never panics;
//   - when Load accepts the input and Save writes the part back, that
//     text is a fixed point: Save(Load(Save(p))) == Save(p);
//   - Clone is Load∘Save: Save(Clone(p)) == Save(p), on hostile parts
//     as on built ones.
//
// The seed corpus in testdata/fuzz/FuzzLoad holds the Save bytes of the
// four served designs (bar, bar-sphere, double-bar, prism) plus
// truncated and garbage inputs. Those seeds are ~200 KB, and minimizing
// an input grown from one takes the whole default minimize budget, so
// cap it. Run with
// `go test -run='^$' -fuzz=FuzzLoad -fuzzminimizetime=2s ./internal/brep`.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(data)
		if err != nil {
			return
		}
		text, err := Save(p)
		if err != nil {
			return
		}
		q, err := Load(text)
		if err != nil {
			t.Fatalf("Save output does not load: %v\n%s", err, text)
		}
		again, err := Save(q)
		if err != nil {
			t.Fatalf("Save(Load(Save(p))): %v", err)
		}
		if !bytes.Equal(again, text) {
			t.Fatalf("Save(Load(Save(p))) != Save(p):\n%s\n%s", again, text)
		}
		c, err := Clone(p)
		if err != nil {
			t.Fatalf("Clone fails on a part Save accepts: %v", err)
		}
		cloned, err := Save(c)
		if err != nil {
			t.Fatalf("Save(Clone(p)): %v", err)
		}
		if !bytes.Equal(cloned, text) {
			t.Fatalf("Save(Clone(p)) != Save(p):\n%s\n%s", cloned, text)
		}
	})
}
