package printer

import (
	"math"
	"testing"

	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/slicer"
)

// dropExtrusions removes every n-th extruding move (the supplychain
// porosity attack, inlined to avoid an import cycle in tests).
func dropExtrusions(p *gcode.Program, n int) {
	kept := p.Commands[:0]
	count := 0
	for _, c := range p.Commands {
		if c.Code == "G1" {
			if _, hasE := c.Arg("E"); hasE {
				count++
				if count%n == 0 {
					continue
				}
			}
		}
		kept = append(kept, c)
	}
	p.Commands = kept
}

func boxProgram(t *testing.T) (*gcode.Program, *slicer.Result, float64) {
	t.Helper()
	const w, d, h = 20.0, 10.0, 1.0668 // 6 layers
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(w, d, h)),
	}}
	sliced, err := slicer.Slice(m, slicer.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	paths, err := sliced.Toolpaths()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := gcode.Generate("box", paths, gcode.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return prog, sliced, w * d * h
}

func TestPrintGCodeMatchesDesignVolume(t *testing.T) {
	prog, sliced, design := boxProgram(t)
	prof := DimensionElite()

	fromGCode, err := PrintGCode(prog, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fromGCode.ModelVolume-design)/design > 0.15 {
		t.Errorf("gcode-printed volume %v, want ~%v", fromGCode.ModelVolume, design)
	}
	// Region-driven and program-driven deposition agree.
	fromSlices, err := Print(sliced, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(fromGCode.ModelVolume-fromSlices.ModelVolume) / fromSlices.ModelVolume
	if rel > 0.15 {
		t.Errorf("gcode volume %v vs slicer volume %v (%.0f%% apart)",
			fromGCode.ModelVolume, fromSlices.ModelVolume, rel*100)
	}
	if err := WeightCheck(fromGCode, design, 0.2); err != nil {
		t.Errorf("clean gcode print failed weight check: %v", err)
	}
}

// The full attack loop: porosity-injected G-code physically prints an
// underweight part; the weight inspection catches it even without a
// reference program.
func TestPorosityAttackManifestsPhysically(t *testing.T) {
	prog, _, design := boxProgram(t)
	prof := DimensionElite()
	dropExtrusions(prog, 3)
	b, err := PrintGCode(prog, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := WeightCheck(b, design, 0.1); err == nil {
		t.Errorf("porosity-attacked print passed weight check (volume %v of %v)",
			b.ModelVolume, design)
	}
}

// Firmware trojan on the G-code path.
func TestPrintGCodeExtrusionTrim(t *testing.T) {
	prog, _, _ := boxProgram(t)
	prof := DimensionElite()
	clean, err := PrintGCode(prog, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trojaned, err := PrintGCode(prog, prof, Options{ExtrusionTrim: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if trojaned.ModelVolume >= 0.9*clean.ModelVolume {
		t.Errorf("trim should cut volume: %v vs %v", trojaned.ModelVolume, clean.ModelVolume)
	}
}

func TestPrintGCodeDualMaterial(t *testing.T) {
	// Hand-written two-layer program with support on T1.
	prog := &gcode.Program{Commands: []gcode.Command{
		gcode.Command{Code: "G92"}.With("E", 0),
		{Code: "T1"},
		gcode.Command{Code: "G1"}.With("Z", 0.0889).With("F", 4800),
		gcode.Command{Code: "G0"}.With("X", 0).With("Y", 0),
		gcode.Command{Code: "G1"}.With("X", 10).With("Y", 0).With("E", 0.5),
		{Code: "T0"},
		gcode.Command{Code: "G1"}.With("Z", 0.2667),
		gcode.Command{Code: "G0"}.With("X", 0).With("Y", 0),
		gcode.Command{Code: "G1"}.With("X", 10).With("Y", 0).With("E", 1.0),
	}}
	b, err := PrintGCode(prog, DimensionElite(), Options{KeepSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.SupportVolume <= 0 || b.ModelVolume <= 0 {
		t.Errorf("dual deposit volumes: model %v support %v", b.ModelVolume, b.SupportVolume)
	}
}

func TestPrintGCodeErrors(t *testing.T) {
	prof := DimensionElite()
	if _, err := PrintGCode(&gcode.Program{}, prof, Options{}); err == nil {
		t.Error("expected error for empty program")
	}
	travelOnly := &gcode.Program{Commands: []gcode.Command{
		gcode.Command{Code: "G0"}.With("X", 10),
	}}
	if _, err := PrintGCode(travelOnly, prof, Options{}); err == nil {
		t.Error("expected error for program that extrudes nothing")
	}
	prog, _, _ := boxProgram(t)
	if _, err := PrintGCode(prog, prof, Options{ExtrusionTrim: 2}); err == nil {
		t.Error("expected error for invalid trim")
	}
}
