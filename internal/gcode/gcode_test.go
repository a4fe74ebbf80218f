package gcode

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/slicer"
)

func boxPaths(t *testing.T) []*slicer.LayerToolpath {
	t.Helper()
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(10, 10, 0), geom.V3(30, 20, 1)),
	}}
	opts := slicer.DefaultOptions()
	res, err := slicer.Slice(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := res.Toolpaths()
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestGenerateEncodeParseRoundTrip(t *testing.T) {
	paths := boxPaths(t)
	prog, err := Generate("box", paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "G21") || !strings.Contains(string(data), "G90") {
		t.Error("missing preamble")
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated physics must agree between original and round-tripped.
	env := DimensionEliteEnvelope()
	d, err := Compare(prog, back, env)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equivalent(1e-3) {
		t.Errorf("round trip not equivalent: %+v", d)
	}
}

func TestGenerateBadOptions(t *testing.T) {
	paths := boxPaths(t)
	bad := DefaultOptions()
	bad.PrintFeed = 0
	if _, err := Generate("x", paths, bad); err == nil {
		t.Error("expected error for zero feed")
	}
}

func TestSimulateReport(t *testing.T) {
	paths := boxPaths(t)
	prog, err := Generate("box", paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
	if rep.Layers != len(paths) {
		t.Errorf("layers = %d, want %d", rep.Layers, len(paths))
	}
	wantExtrude := slicer.TotalExtruded(paths)
	if math.Abs(rep.ExtrudeLength-wantExtrude) > 1e-3*wantExtrude {
		t.Errorf("extrude length = %v, want %v", rep.ExtrudeLength, wantExtrude)
	}
	if rep.PrintTime <= 0 {
		t.Error("print time should be positive")
	}
	if rep.ExtrudedE <= 0 {
		t.Error("extruded E should be positive")
	}
	// Bounds include the box with its travel moves.
	if rep.Bounds.Max.X < 29 || rep.Bounds.Min.X > 11 {
		t.Errorf("bounds = %+v", rep.Bounds)
	}
}

func TestSimulateEnvelopeViolation(t *testing.T) {
	prog := &Program{Commands: []Command{
		{Code: "G90"},
		Command{Code: "G1"}.With("X", 500).With("Y", 0).With("F", 1000),
	}}
	rep, err := Simulate(prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("expected envelope violation")
	}
	if rep.Violations[0].Kind != "envelope" {
		t.Errorf("violation kind = %s", rep.Violations[0].Kind)
	}
}

func TestSimulateFeedrateViolation(t *testing.T) {
	prog := &Program{Commands: []Command{
		Command{Code: "G1"}.With("X", 10).With("F", 99999),
	}}
	rep, err := Simulate(prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == "feedrate" {
			found = true
		}
	}
	if !found {
		t.Error("expected feedrate violation")
	}
}

func TestSimulateUnknownCommand(t *testing.T) {
	prog := &Program{Commands: []Command{{Code: "G999"}}}
	rep, err := Simulate(prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("expected unknown-command violation")
	}
}

func TestSimulateEmpty(t *testing.T) {
	if _, err := Simulate(&Program{}, DimensionEliteEnvelope()); err == nil {
		t.Error("expected error for empty program")
	}
}

func TestParseMalformed(t *testing.T) {
	if _, err := Unmarshal([]byte("G1 Xabc\n")); err == nil {
		t.Error("expected parse error for bad number")
	}
	if _, err := Unmarshal([]byte("G1 X\n")); err == nil {
		t.Error("expected parse error for empty word")
	}
}

func TestParseCommentsAndCase(t *testing.T) {
	p, err := Unmarshal([]byte("; header only\ng1 x5 y6 e0.1 f1200 ; move\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Commands) != 2 {
		t.Fatalf("commands = %d, want 2", len(p.Commands))
	}
	if p.Commands[1].Code != "G1" {
		t.Errorf("code = %q", p.Commands[1].Code)
	}
	if v, ok := p.Commands[1].Arg("X"); !ok || v != 5 {
		t.Errorf("X arg = %v %t", v, ok)
	}
	if p.Commands[0].Comment != "header only" {
		t.Errorf("comment = %q", p.Commands[0].Comment)
	}
}

func TestExtractToolpaths(t *testing.T) {
	paths := boxPaths(t)
	prog, err := Generate("box", paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtractToolpaths(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(paths) {
		t.Fatalf("extracted layers = %d, want %d", len(got), len(paths))
	}
	// Reverse-engineered extruded length matches the design intent
	// (ref [20]'s reconstruction guarantee).
	want := slicer.TotalExtruded(paths)
	have := slicer.TotalExtruded(got)
	if math.Abs(want-have) > 1e-3*want {
		t.Errorf("reversed extrusion %v, want %v", have, want)
	}
}

func TestExtractToolpathsNoLayers(t *testing.T) {
	prog := &Program{Commands: []Command{{Code: "G90"}}}
	if _, err := ExtractToolpaths(prog); err == nil {
		t.Error("expected error when no layers present")
	}
}

// The Table 1 "Slicing & G-code" attack/mitigation pair: a porosity attack
// (dropping infill) must be caught by the G-code comparison check.
func TestCompareDetectsPorosityAttack(t *testing.T) {
	paths := boxPaths(t)
	prog, err := Generate("box", paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Attack: remove every 4th extruding move (injected porosity).
	tampered := &Program{Name: prog.Name}
	n := 0
	for _, c := range prog.Commands {
		if c.Code == "G1" {
			if _, hasE := c.Arg("E"); hasE {
				n++
				if n%4 == 0 {
					continue
				}
			}
		}
		tampered.Commands = append(tampered.Commands, c)
	}
	env := DimensionEliteEnvelope()
	d, err := Compare(prog, tampered, env)
	if err != nil {
		t.Fatal(err)
	}
	if d.Equivalent(1e-3) {
		t.Error("porosity attack not detected")
	}
	if d.ExtrudeDelta >= 0 {
		t.Errorf("tampered program should extrude less: %+v", d)
	}
}

func TestCompareSelfEquivalent(t *testing.T) {
	paths := boxPaths(t)
	prog, _ := Generate("box", paths, DefaultOptions())
	d, err := Compare(prog, prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equivalent(1e-9) {
		t.Errorf("self-compare not equivalent: %+v", d)
	}
}

// Commands are plain values: editing a copied command slice must leave
// the original program's text unchanged.
func TestCommandCopyIsIndependent(t *testing.T) {
	prog, err := Generate("box", boxPaths(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	before, err := Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}
	cp := append([]Command{}, prog.Commands...)
	for i := range cp {
		cp[i] = cp[i].With("X", 999).With("S", 1)
		cp[i].Comment = "edited"
	}
	after, err := Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("editing a copy of the commands changed the original program")
	}
	if cp[0] == prog.Commands[0] {
		t.Error("the edit did not take on the copy")
	}
}

func TestArgAndWith(t *testing.T) {
	c := Command{Code: "G1"}
	for i, l := range []string{"X", "Y", "Z", "E", "F", "S"} {
		if _, ok := c.Arg(l); ok {
			t.Fatalf("%s present before With", l)
		}
		c = c.With(l, float64(i+1))
	}
	for i, l := range []string{"X", "Y", "Z", "E", "F", "S"} {
		if v, ok := c.Arg(l); !ok || v != float64(i+1) {
			t.Errorf("Arg(%s) = %v, %t", l, v, ok)
		}
	}
	for _, l := range []string{"x", "A", "", "XY"} {
		if d := c.With(l, 7); d != c {
			t.Errorf("With(%q) changed the command", l)
		}
		if _, ok := c.Arg(l); ok {
			t.Errorf("Arg(%q) reported present", l)
		}
	}
	// A zero value is present once set.
	if v, ok := (Command{}).With("E", 0).Arg("E"); !ok || v != 0 {
		t.Errorf("E0 = %v, %t", v, ok)
	}
}

// Parse keeps the last of repeated letters, folds case, and drops
// letters outside XYZEFS (after checking their numbers).
func TestParseArgumentLetters(t *testing.T) {
	p, err := Unmarshal([]byte("g1 X1 x2 A9 y3 B-1 E0.5 e0.75\n"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := "G1 X2.00000 Y3.00000 E0.75000\n"; string(got) != want {
		t.Errorf("Marshal = %q, want %q", got, want)
	}
	if _, err := Unmarshal([]byte("G1 Qabc\n")); err == nil {
		t.Error("an unknown letter with a bad number should still fail")
	}
}

// printfEncode is the line format Encode had before it wrote numbers
// with strconv: one fmt "%.5f" per argument, in XYZEFS order.
func printfEncode(p *Program) []byte {
	var sb strings.Builder
	for _, c := range p.Commands {
		if c.Code != "" {
			sb.WriteString(c.Code)
			for _, k := range []string{"X", "Y", "Z", "E", "F", "S"} {
				if v, ok := c.Arg(k); ok {
					fmt.Fprintf(&sb, " %s%.5f", k, v)
				}
			}
		}
		if c.Comment != "" {
			if c.Code != "" {
				sb.WriteString(" ")
			}
			sb.WriteString("; ")
			sb.WriteString(c.Comment)
		}
		sb.WriteString("\n")
	}
	return []byte(sb.String())
}

// Encode and Marshal must write exactly what "%.5f" writes, so the
// pinned G-code digests cannot move.
func TestEncodeMatchesPrintf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	special := []float64{0, math.Copysign(0, -1), -4e-6, 4e-6, 5e-6, -5e-6, 0.000015, 2.5,
		-2.5, 1e21, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 1800, 0.033}
	value := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return float64(rng.Intn(400)) - 100
		case 2:
			return (rng.Float64() - 0.5) * 1e3
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
		}
	}
	codes := []string{"", "G0", "G1", "G92", "M104", "T1"}
	comments := []string{"", "TYPE:infill", "layer height", "x ; y"}
	gen, err := Generate("box", boxPaths(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	progs := []*Program{gen, {}}
	for n := 0; n < 200; n++ {
		p := &Program{}
		for i := rng.Intn(30); i > 0; i-- {
			c := Command{Code: codes[rng.Intn(len(codes))], Comment: comments[rng.Intn(len(comments))]}
			for _, l := range []string{"X", "Y", "Z", "E", "F", "S"} {
				if rng.Intn(2) == 0 {
					c = c.With(l, value())
				}
			}
			p.Commands = append(p.Commands, c)
		}
		progs = append(progs, p)
	}
	for i, p := range progs {
		want := printfEncode(p)
		got, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("program %d: Marshal differs from %%.5f:\n%q\n%q", i, got, want)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("program %d: Encode differs from %%.5f", i)
		}
	}
}
