package stego

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/slicer"
	"obfuscade/internal/stl"
)

// The tentpole property, end to end: take a canonical design file C,
// let an attacker embed a payload through any channel combination, then
// sanitize. The sanitized mesh must (1) equal C exactly, (2) slice
// byte-identically to C under the retained naive reference kernels
// (the PR 5 DeepEqual oracle) *and* the indexed kernels, and (3) carry
// no recoverable payload — extraction fails outright, it does not
// return garbage.
func TestSanitizeDestroysChannelsSliceByteIdentical(t *testing.T) {
	channels := []Channel{
		ChannelFacetOrder,
		ChannelCoordLSB,
		ChannelFacetOrder | ChannelCoordLSB,
	}
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		orig := testMesh(rng, 15) // 180 facets
		c := Sanitize(orig, Options{})
		wantSlice, err := slicer.SliceReference(c, slicer.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 1+rng.Intn(40))
		rng.Read(payload)

		for _, ch := range channels {
			emb, err := Embed(c, payload, Options{Channels: ch})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, ch, err)
			}
			if rep := Detect(emb, Options{}); !rep.Suspicious() {
				t.Fatalf("trial %d %s: detector missed the embedding: %+v", trial, ch, rep)
			}

			s := Sanitize(emb, Options{})
			if !reflect.DeepEqual(s, c) {
				t.Fatalf("trial %d %s: sanitized mesh differs from pre-embed original", trial, ch)
			}
			if rep := Detect(s, Options{}); rep.Suspicious() {
				t.Fatalf("trial %d %s: detector still suspicious after sanitize: %+v", trial, ch, rep)
			}

			gotNaive, err := slicer.SliceReference(s, slicer.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotNaive, wantSlice) {
				t.Fatalf("trial %d %s: naive-kernel slice differs after embed+sanitize", trial, ch)
			}
			gotIndexed, err := slicer.Slice(s, slicer.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotIndexed, gotNaive) {
				t.Fatalf("trial %d %s: indexed slice differs from naive oracle", trial, ch)
			}

			// Unrecoverability: no channel yields the payload — or any
			// payload — from the sanitized mesh.
			for _, ex := range []Channel{ChannelFacetOrder, ChannelCoordLSB} {
				if got, err := Extract(s, ex, Options{}); err == nil {
					t.Fatalf("trial %d %s: payload %x recovered via %s after sanitize", trial, ch, got, ex)
				}
			}
		}
	}
}

// The same guarantee at the wire level, the shape the service relies on
// for content addressing: sanitizing the attacker's STL bytes yields
// bytes identical to sanitizing the original file, and re-sanitizing
// the output is the identity.
func TestSanitizeSTLCanonicalBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	orig := testMesh(rng, 12)
	origSTL, err := stl.Marshal(orig, stl.Binary, "part")
	if err != nil {
		t.Fatal(err)
	}
	cleanSTL, rep, err := SanitizeSTL(origSTL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != Version || rep.Triangles != orig.TriangleCount() || rep.Quantum != DefaultQuantum {
		t.Fatalf("report = %+v", rep)
	}
	if rep.After.Suspicious() {
		t.Fatalf("sanitized output still suspicious: %+v", rep.After)
	}

	payload := []byte("stolen blueprint fragment")
	emb, err := Embed(orig, payload, Options{})
	if err != nil {
		t.Fatal(err)
	}
	embSTL, err := stl.Marshal(emb, stl.Binary, "part")
	if err != nil {
		t.Fatal(err)
	}
	// The payload survives the STL wire format round trip...
	decoded, err := stl.Unmarshal(embSTL)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []Channel{ChannelFacetOrder, ChannelCoordLSB} {
		got, err := Extract(decoded, ch, Options{})
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: payload lost in STL round trip: %q, %v", ch, got, err)
		}
	}
	// ...and sanitizing the stego file reproduces the canonical bytes.
	fromEmb, rep2, err := SanitizeSTL(embSTL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Before.Suspicious() {
		t.Fatalf("detector missed wire-level embedding: %+v", rep2.Before)
	}
	if !bytes.Equal(fromEmb, cleanSTL) {
		t.Fatal("sanitized stego STL differs from sanitized original STL")
	}
	again, _, err := SanitizeSTL(cleanSTL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, cleanSTL) {
		t.Fatal("sanitize is not idempotent at the byte level")
	}
}

func TestSanitizeSTLRejectsGarbage(t *testing.T) {
	if _, _, err := SanitizeSTL([]byte("not an stl"), Options{}); err == nil {
		t.Fatal("garbage input must error")
	}
	// Non-finite coordinates are rejected by the hardened decoder
	// before they can poison the sanitizer.
	bad := "solid x\nfacet normal 0 0 1\nouter loop\nvertex NaN 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid x\n"
	if _, _, err := SanitizeSTL([]byte(bad), Options{}); err == nil {
		t.Fatal("non-finite input must error")
	}
}

// A coordinate beyond ±math.MaxFloat32 is finite to the ASCII decoder
// but infinite on the binary wire: sanitizing it once wrote z = +Inf
// with a zero normal, and sanitizing that wrote a NaN normal, so the
// bytes changed. Such uploads are rejected, as are binary files that
// carry NaN or ±Inf, and quanta that snap a coordinate out of range.
func TestSanitizeSTLRejectsCoordinatesBeyondFloat32(t *testing.T) {
	for _, in := range []string{
		"solid\nvertex 0 0 0\nvertex 0 0 1e100\nvertex 0 0 0\nendfacet",
		"solid\nvertex 0 0 0\nvertex -3.5e38 0 0\nvertex 0 1 0\nendfacet",
	} {
		if out, _, err := SanitizeSTL([]byte(in), Options{}); err == nil {
			t.Errorf("%q: sanitized to %d bytes, want an error", in, len(out))
		}
	}
	for _, c := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		m := &mesh.Mesh{Shells: []mesh.Shell{{Tris: []geom.Triangle{{
			A: geom.V3(0, 0, 0), B: geom.V3(1, 0, 0), C: geom.V3(0, 1, 0)}}}}}
		bin, err := stl.Marshal(m, stl.Binary, "x")
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(bin[84+12:], math.Float32bits(c)) // vertex A.x
		if _, _, err := SanitizeSTL(bin, Options{}); err == nil {
			t.Errorf("binary vertex %v accepted", c)
		}
	}
	// At the edge of the range the file is fine, and sanitizes to itself.
	edge := "solid\nvertex 0 0 0\nvertex 0 0 3.4028234e38\nvertex 0 1 0\nendfacet"
	out, _, err := SanitizeSTL([]byte(edge), Options{})
	if err != nil {
		t.Fatalf("largest float32 coordinate rejected: %v", err)
	}
	again, _, err := SanitizeSTL(out, Options{})
	if err != nil || !bytes.Equal(again, out) {
		t.Fatalf("re-sanitizing the edge file: err %v, identical %v", err, bytes.Equal(again, out))
	}
	// A quantum so fine that c/q overflows snaps 2e8 to +Inf.
	ok := "solid\nvertex 0 0 0\nvertex 2e8 0 0\nvertex 0 1 0\nendfacet"
	if _, _, err := SanitizeSTL([]byte(ok), Options{Quantum: 1e-301}); err == nil {
		t.Error("quantum that overflows a coordinate accepted")
	}
}

// Past 2^13 the default grid is finer than float32, so a grid value can
// change on the wire. Here the first and second vertices differ only in
// x's last grid step, which decides the canonical vertex rotation; on
// the wire both read 20000, and the rotation must not flip on a second
// pass.
func TestSanitizeSTLIdempotentBeyondFloat32Precision(t *testing.T) {
	in := "solid\nvertex 20000.0009765625 5 0\nvertex 20000 9 0\nvertex 30000 0 0\nendfacet\n"
	out, _, err := SanitizeSTL([]byte(in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := SanitizeSTL(out, Options{})
	if err != nil || !bytes.Equal(again, out) {
		t.Fatalf("re-sanitizing changes the bytes (err %v)", err)
	}
}

// The output header is part of the canonical bytes, so its name must be
// a fixed point too: names the binary header would cut at a NUL, trim,
// truncate at 80 bytes or prefix with "bin: " all re-sanitize to the
// same bytes.
func TestSanitizeSTLNameFixedPoint(t *testing.T) {
	box := "facet normal 0 0 1\nouter loop\nvertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\n"
	for _, name := range []string{
		"\x00", "a\x00b", "\vsolid x", "solid", "  padded  ",
		strings.Repeat("x", 79) + " y", "\v" + strings.Repeat("solid", 20),
		"solid" + strings.Repeat("x", 69) + " abcd",
	} {
		in := "solid " + name + "\n" + box + "endsolid\n"
		out, _, err := SanitizeSTL([]byte(in), Options{})
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		again, _, err := SanitizeSTL(out, Options{})
		if err != nil || !bytes.Equal(again, out) {
			t.Errorf("%q: re-sanitizing changes the bytes (err %v)", name, err)
		}
	}
}
