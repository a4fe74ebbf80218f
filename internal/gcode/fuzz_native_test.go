package gcode

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// Native fuzz target for the G-code decoder. Invariants, for any input
// Parse accepts:
//   - Parse never panics, and what it returns simulates without panicking;
//   - Marshal's text parses back, and parsing and writing it again gives
//     the same bytes, so one Parse/Marshal pass reaches a fixed point;
//   - Parse(Marshal(Parse(x))) equals Parse(x), and both simulate to the
//     same Report, whenever Marshal keeps every argument exactly (it writes
//     five decimals, so longer fractions are rounded once, on the first
//     pass).
//
// The seed corpus is in testdata/fuzz/FuzzParse. Run with
// `go test -run='^$' -fuzz=FuzzParse ./internal/gcode`.
func FuzzParse(f *testing.F) {
	f.Add("G21\nG90\nG1 X10 Y10 E0.5 F1800\n")
	f.Add("; comment only\n")
	f.Add("T0\nG92 E0\nG0 X-5\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Unmarshal([]byte(src))
		if err != nil {
			return
		}
		simP := simulated(p)
		text, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Unmarshal(text)
		if err != nil {
			t.Fatalf("Marshal output does not parse: %v\n%s", err, text)
		}
		again, err := Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, text) {
			t.Fatalf("Marshal(Parse(Marshal(p))) != Marshal(p):\n%q\n%q", again, text)
		}
		if exactAt5(p) {
			if !sameProgram(p, q) {
				t.Fatalf("Parse(Marshal(p)) != p:\n%+v\n%+v", p.Commands, q.Commands)
			}
			if b := simulated(q); simP != b {
				t.Fatalf("reports differ:\n%s\n%s", simP, b)
			}
		}
		r, err := Unmarshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !sameProgram(q, r) {
			t.Fatalf("Parse∘Marshal is not the identity on its own output:\n%+v\n%+v", q.Commands, r.Commands)
		}
		if a, b := simulated(q), simulated(r); a != b {
			t.Fatalf("reports differ:\n%s\n%s", a, b)
		}
	})
}

// exactAt5 reports whether every argument of p survives Encode's "%.5f"
// bit for bit.
func exactAt5(p *Program) bool {
	for _, c := range p.Commands {
		for i := 0; i < numArgs; i++ {
			if c.has&(1<<i) == 0 {
				continue
			}
			back, err := strconv.ParseFloat(strconv.FormatFloat(c.args[i], 'f', 5, 64), 64)
			if err != nil || math.Float64bits(back) != math.Float64bits(c.args[i]) {
				return false
			}
		}
	}
	return true
}

// sameProgram compares commands field by field, floats by their bits,
// so NaN equals NaN and -0 differs from +0.
func sameProgram(a, b *Program) bool {
	if len(a.Commands) != len(b.Commands) {
		return false
	}
	for i, ca := range a.Commands {
		cb := b.Commands[i]
		if ca.Code != cb.Code || ca.Comment != cb.Comment || ca.has != cb.has {
			return false
		}
		for j := range ca.args {
			if math.Float64bits(ca.args[j]) != math.Float64bits(cb.args[j]) {
				return false
			}
		}
	}
	return true
}

// simulated renders the simulation of p (or its error) for comparison.
func simulated(p *Program) string {
	rep, err := Simulate(p, DimensionEliteEnvelope())
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%+v", *rep)
}
