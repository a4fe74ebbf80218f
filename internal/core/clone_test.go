package core

import (
	"bytes"
	"math"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/stl"
	"obfuscade/internal/tessellate"
)

// viaJSON is the reference copy ClonePart must reproduce: the part's
// native serialisation, loaded back.
func viaJSON(t *testing.T, p *brep.Part) *brep.Part {
	t.Helper()
	data, err := brep.Save(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := brep.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustSTL(t *testing.T, p *brep.Part, res tessellate.Resolution) []byte {
	t.Helper()
	m, err := tessellate.Tessellate(p, res)
	if err != nil {
		t.Fatal(err)
	}
	data, err := stl.Marshal(m, stl.Binary, p.Name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertSameAsJSON checks that ClonePart(p) saves and tessellates byte
// for byte like Load(Save(p)) at every STL resolution.
func assertSameAsJSON(t *testing.T, p *brep.Part) *brep.Part {
	t.Helper()
	got, err := ClonePart(p)
	if err != nil {
		t.Fatal(err)
	}
	want := viaJSON(t, p)
	if !bytes.Equal(mustSave(t, got), mustSave(t, want)) {
		t.Fatal("Save(ClonePart(p)) differs from Save(Load(Save(p)))")
	}
	for _, res := range tessellate.Presets() {
		if !bytes.Equal(mustSTL(t, got, res), mustSTL(t, want, res)) {
			t.Fatalf("%s STL of the clone differs from the loaded copy", res.Name)
		}
	}
	return got
}

func holedPlate(t *testing.T) *brep.Part {
	t.Helper()
	p, err := brep.NewRectPrism("plate", geom.V3(40, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, cx := range []float64{10, 30} {
		if err := brep.AddThroughHole(p, "prism", cx, 10, 3); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestClonePartMatchesSaveLoad(t *testing.T) {
	parts := map[string]*brep.Part{}
	for _, name := range []string{"bar", "bar-sphere", "double-bar", "prism"} {
		prot, err := BuildProtected(name)
		if err != nil {
			t.Fatal(err)
		}
		parts[name] = prot.Part
		restored, err := ApplyKey(prot, Key{Resolution: tessellate.Custom, RestoreSphere: true})
		if err != nil {
			t.Fatal(err)
		}
		parts[name+"+restored"] = restored
	}
	shaft, err := brep.NewShaft("shaft", 10, 6, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := brep.EmbedSphere(shaft, "shaft", geom.V3(5, 0, 0), 2, brep.EmbedOpts{MaterialRemoval: true}); err != nil {
		t.Fatal(err)
	}
	parts["shaft"] = shaft
	parts["holed-plate"] = holedPlate(t)
	for name, p := range parts {
		t.Run(name, func(t *testing.T) {
			got := assertSameAsJSON(t, p)
			// A copy of the copy is still the same: the sampled form is
			// a fixed point of the codec.
			assertSameAsJSON(t, got)
		})
	}
}

// omitempty numbers drop a -0 from the text, so Load returns +0 there;
// numbers without omitempty keep the sign.
func TestClonePartNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	p, err := brep.NewRectPrism("signed", geom.V3(20, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	prism := p.Bodies[0].Shape.(*brep.Prism)
	prism.Z0 = negZero
	prism.Bottom = &brep.LineBoundary{X0: negZero, Y0: negZero, X1: 20, Y1: negZero}
	prism.Top.(*brep.LineBoundary).X0 = negZero
	p.Bodies[0].Phase = negZero
	if err := brep.EmbedSphere(p, "prism", geom.V3(10, 5, 2.5), 1, brep.EmbedOpts{}); err != nil {
		t.Fatal(err)
	}
	got := assertSameAsJSON(t, p)
	want := viaJSON(t, p)

	gp, wp := got.Bodies[0].Shape.(*brep.Prism), want.Bodies[0].Shape.(*brep.Prism)
	if math.Signbit(gp.Z0) || math.Signbit(wp.Z0) {
		t.Errorf("omitempty z0: clone signbit %t, loaded signbit %t, want +0 for both",
			math.Signbit(gp.Z0), math.Signbit(wp.Z0))
	}
	gb, wb := gp.Bottom.(*brep.LineBoundary), wp.Bottom.(*brep.LineBoundary)
	if math.Signbit(gb.X0) || math.Signbit(gb.Y0) || math.Signbit(gb.Y1) || *gb != *wb {
		t.Errorf("omitempty line boundary: clone %+v, loaded %+v", *gb, *wb)
	}
	if g, w := got.Bodies[0].Phase, want.Bodies[0].Phase; !math.Signbit(g) || !math.Signbit(w) {
		t.Errorf("phase (no omitempty) lost its sign: clone %v, loaded %v", g, w)
	}
}

func TestClonePartHistory(t *testing.T) {
	// nil and empty history survive as they do through JSON.
	p := holedPlate(t)
	p.History = nil
	if got, _ := ClonePart(p); got.History != nil || viaJSON(t, p).History != nil {
		t.Error("nil history should stay nil")
	}
	p.History = []string{}
	if got, _ := ClonePart(p); got.History == nil || len(got.History) != 0 {
		t.Errorf("empty history became %#v, want empty non-nil like Load", got.History)
	}
}

func TestClonePartRejectsNonFinite(t *testing.T) {
	for name, spoil := range map[string]func(p *brep.Part){
		"sphere radius": func(p *brep.Part) { p.Body("sphere").Shape.(*brep.Sphere).R = math.NaN() },
		"sphere centre": func(p *brep.Part) { p.Body("sphere").Shape.(*brep.Sphere).Center.Y = math.Inf(1) },
		"prism z1":      func(p *brep.Part) { p.Body("prism").Shape.(*brep.Prism).Z1 = math.Inf(-1) },
		"phase":         func(p *brep.Part) { p.Body("prism").Phase = math.NaN() },
		// Finite geometry whose stored mass properties overflow.
		"volume": func(p *brep.Part) { p.Body("sphere").Shape.(*brep.Sphere).R = 1e200 },
	} {
		t.Run(name, func(t *testing.T) {
			p, err := brep.NewRectPrism("prism", geom.V3(20, 10, 5))
			if err != nil {
				t.Fatal(err)
			}
			if err := brep.EmbedSphere(p, "prism", geom.V3(10, 5, 2.5), 1, brep.EmbedOpts{}); err != nil {
				t.Fatal(err)
			}
			spoil(p)
			if _, err := brep.Save(p); err == nil {
				t.Fatal("Save accepted a non-finite value; the test premise is wrong")
			}
			if _, err := ClonePart(p); err == nil {
				t.Error("ClonePart accepted a part Save rejects")
			}
		})
	}
}

// Edits to the copy must never reach the original: the clone shares no
// Bodies or Cavities backing array and no body or shape with it.
func TestClonePartIsolated(t *testing.T) {
	for _, name := range []string{"bar-sphere", "prism"} {
		prot, err := BuildProtected(name)
		if err != nil {
			t.Fatal(err)
		}
		before := mustSave(t, prot.Part)
		clone, err := ClonePart(prot.Part)
		if err != nil {
			t.Fatal(err)
		}
		sphere := prot.Manifest.Features[len(prot.Manifest.Features)-1].Sphere
		if !clone.RemoveBody("sphere") {
			t.Fatalf("%s: clone has no sphere body", name)
		}
		if err := brep.EmbedSphere(clone, sphere.Host, sphere.Center, sphere.Radius,
			brep.EmbedOpts{MaterialRemoval: true}); err != nil {
			t.Fatal(err)
		}
		if len(clone.Body(sphere.Host).Cavities) != 1 || len(prot.Part.Body(sphere.Host).Cavities) != 0 {
			t.Errorf("%s: the cavity should be on the clone only", name)
		}
		clone.Bodies[0].Name = "renamed"
		clone.History[0] = "rewritten"
		if !bytes.Equal(mustSave(t, prot.Part), before) {
			t.Errorf("%s: editing the clone changed the original", name)
		}
	}
}

func BenchmarkClonePart(b *testing.B) {
	prot, err := BuildProtected("bar-sphere")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ClonePart(prot.Part); err != nil {
			b.Fatal(err)
		}
	}
}
