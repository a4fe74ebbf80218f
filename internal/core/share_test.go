package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"obfuscade/internal/obs"
	"obfuscade/internal/printer"
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
