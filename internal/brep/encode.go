package brep

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"obfuscade/internal/geom"
	"obfuscade/internal/spline"
)

// This file implements the kernel's native part format ("OCAD"). The
// format exists so the repository can reproduce the paper's §3.2 file-size
// observations: solid bodies carry computed volumetric properties that
// surface bodies lack, so a part with a solid sphere serialises larger
// than the same part with a surface sphere, even though both export to
// byte-identical STL sizes. Material removal adds a cavity record, making
// the with-removal variants larger still.

type cadFile struct {
	Format  string    `json:"format"`
	Name    string    `json:"name"`
	History []string  `json:"history"`
	Bodies  []cadBody `json:"bodies"`
}

type cadBody struct {
	Name     string        `json:"name"`
	Kind     string        `json:"kind"`
	Phase    float64       `json:"phase"`
	Shape    cadShape      `json:"shape"`
	Cavities []cadShape    `json:"cavities,omitempty"`
	Mass     *massProps    `json:"mass,omitempty"`
	Surface  *surfaceProps `json:"surface,omitempty"`
}

// massProps are the volumetric properties a CAD system stores for solid
// bodies.
type massProps struct {
	Volume   float64    `json:"volume"`
	Centroid geom.Vec3  `json:"centroid"`
	Inertia  [6]float64 `json:"inertia"` // Ixx Iyy Izz Ixy Ixz Iyz (thin approximation)
}

// surfaceProps are the lighter-weight properties stored for surface bodies.
type surfaceProps struct {
	Area float64 `json:"area"`
}

// cadShape and cadBoundary are the encoded form Save writes. Their
// asLoaded methods restate what the JSON text does to these fields
// (omitempty -0, non-finite numbers), so a field added here must be
// handled there too; TestAsLoadedCoversEveryField checks this.
type cadShape struct {
	Kind   string       `json:"kind"`
	Z0     float64      `json:"z0,omitempty"`
	Z1     float64      `json:"z1,omitempty"`
	Top    *cadBoundary `json:"top,omitempty"`
	Bottom *cadBoundary `json:"bottom,omitempty"`
	Center geom.Vec3    `json:"center,omitempty"`
	R      float64      `json:"r,omitempty"`
	// Revolve fields.
	X0     float64       `json:"x0,omitempty"`
	X1     float64       `json:"x1,omitempty"`
	Tag    string        `json:"tag,omitempty"`
	Axis   geom.Vec2     `json:"axis,omitempty"`
	Pieces [][]geom.Vec2 `json:"pieces,omitempty"`
}

type cadBoundary struct {
	Kind    string         `json:"kind"`
	X0      float64        `json:"x0,omitempty"`
	Y0      float64        `json:"y0,omitempty"`
	X1      float64        `json:"x1,omitempty"`
	Y1      float64        `json:"y1,omitempty"`
	Tag     string         `json:"tag,omitempty"`
	Samples []geom.Vec2    `json:"samples,omitempty"`
	Spans   []cadSpan      `json:"spans,omitempty"`
	Parts   []*cadBoundary `json:"parts,omitempty"`
}

type cadSpan struct {
	P0, P1, P2, P3 geom.Vec2
}

// funcSampleCount is how densely analytic boundaries are sampled when
// serialised; loading reconstructs a piecewise-linear equivalent.
const funcSampleCount = 512

// Save serialises the part to the native CAD format.
func Save(p *Part) ([]byte, error) {
	f := cadFile{Format: "OCAD-1", Name: p.Name, History: p.History}
	for _, b := range p.Bodies {
		cb := cadBody{
			Name:  b.Name,
			Kind:  b.Kind.String(),
			Phase: b.Phase,
		}
		sh, err := encodeShape(b.Shape)
		if err != nil {
			return nil, fmt.Errorf("brep: save body %q: %w", b.Name, err)
		}
		cb.Shape = sh
		for _, c := range b.Cavities {
			cs, err := encodeShape(c)
			if err != nil {
				return nil, fmt.Errorf("brep: save cavity of %q: %w", b.Name, err)
			}
			cb.Cavities = append(cb.Cavities, cs)
		}
		cb.Mass, cb.Surface = bodyProps(b)
		f.Bodies = append(f.Bodies, cb)
	}
	return json.MarshalIndent(f, "", " ")
}

// bodyProps returns the stored properties of a body: mass properties
// for a solid, surface properties otherwise.
func bodyProps(b *Body) (*massProps, *surfaceProps) {
	if b.Kind != Solid {
		return nil, &surfaceProps{Area: approxArea(b.Shape)}
	}
	v := b.Volume()
	return &massProps{
		Volume:   v,
		Centroid: b.Shape.Bounds().Center(),
		Inertia:  thinInertia(v, b.Shape.Bounds()),
	}, nil
}

func thinInertia(v float64, b geom.AABB) [6]float64 {
	s := b.Size()
	return [6]float64{
		v * (s.Y*s.Y + s.Z*s.Z) / 12,
		v * (s.X*s.X + s.Z*s.Z) / 12,
		v * (s.X*s.X + s.Y*s.Y) / 12,
		0, 0, 0,
	}
}

func approxArea(s Shape) float64 {
	switch t := s.(type) {
	case *Sphere:
		return 4 * 3.141592653589793 * t.R * t.R
	case *Prism:
		poly, err := t.Profile(refOpts, 0)
		if err != nil {
			return 0
		}
		return 2*poly.Area() + poly.Perimeter()*(t.Z1-t.Z0)
	default:
		return 0
	}
}

func encodeShape(s Shape) (cadShape, error) {
	switch t := s.(type) {
	case *Prism:
		top, err := encodeBoundary(t.Top)
		if err != nil {
			return cadShape{}, err
		}
		bot, err := encodeBoundary(t.Bottom)
		if err != nil {
			return cadShape{}, err
		}
		return cadShape{Kind: "prism", Z0: t.Z0, Z1: t.Z1, Top: top, Bottom: bot}, nil
	case *Sphere:
		return cadShape{Kind: "sphere", Center: t.Center, R: t.R}, nil
	case *Revolve:
		cs := cadShape{Kind: "revolve", X0: t.X0, X1: t.X1, Tag: t.Tag, Axis: t.Axis}
		const perPiece = 128
		for _, piece := range t.Pieces() {
			a, b := piece[0], piece[1]
			eps := 1e-9 * (b - a)
			var samples []geom.Vec2
			for i := 0; i <= perPiece; i++ {
				x := a + float64(i)/perPiece*(b-a)
				samples = append(samples, geom.V2(x, t.Radius(geom.Clamp(x, a+eps, b-eps))))
			}
			cs.Pieces = append(cs.Pieces, samples)
		}
		return cs, nil
	default:
		return cadShape{}, fmt.Errorf("unknown shape %T", s)
	}
}

func encodeBoundary(b Boundary) (*cadBoundary, error) {
	switch t := b.(type) {
	case *LineBoundary:
		return &cadBoundary{Kind: "line", X0: t.X0, Y0: t.Y0, X1: t.X1, Y1: t.Y1}, nil
	case *FuncBoundary:
		samples := make([]geom.Vec2, 0, funcSampleCount+1)
		for i := 0; i <= funcSampleCount; i++ {
			x := t.X0 + float64(i)/funcSampleCount*(t.X1-t.X0)
			samples = append(samples, geom.V2(x, t.F(x)))
		}
		return &cadBoundary{Kind: "func", Tag: t.Tag, X0: t.X0, X1: t.X1, Samples: samples}, nil
	case *SplineBoundary:
		cb := &cadBoundary{Kind: "spline"}
		for _, sp := range t.S.Spans {
			cb.Spans = append(cb.Spans, cadSpan{P0: sp.P0, P1: sp.P1, P2: sp.P2, P3: sp.P3})
		}
		return cb, nil
	case *CompositeBoundary:
		cb := &cadBoundary{Kind: "composite"}
		for _, part := range t.Parts {
			enc, err := encodeBoundary(part)
			if err != nil {
				return nil, err
			}
			cb.Parts = append(cb.Parts, enc)
		}
		return cb, nil
	default:
		return nil, fmt.Errorf("unknown boundary %T", b)
	}
}

// Load parses a part from the native CAD format.
func Load(data []byte) (*Part, error) {
	var f cadFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("brep: load: %w", err)
	}
	if f.Format != "OCAD-1" {
		return nil, fmt.Errorf("brep: unsupported format %q", f.Format)
	}
	p := &Part{Name: f.Name, History: f.History}
	for _, cb := range f.Bodies {
		var kind Kind
		switch cb.Kind {
		case "solid":
			kind = Solid
		case "surface":
			kind = Surface
		default:
			return nil, fmt.Errorf("brep: unknown body kind %q", cb.Kind)
		}
		shape, err := decodeShape(cb.Shape)
		if err != nil {
			return nil, fmt.Errorf("brep: load body %q: %w", cb.Name, err)
		}
		body := &Body{Name: cb.Name, Kind: kind, Shape: shape, Phase: cb.Phase}
		for _, cs := range cb.Cavities {
			cav, err := decodeShape(cs)
			if err != nil {
				return nil, fmt.Errorf("brep: load cavity of %q: %w", cb.Name, err)
			}
			body.Cavities = append(body.Cavities, cav)
		}
		p.Bodies = append(p.Bodies, body)
	}
	return p, nil
}

// Clone returns a deep copy of the part that is exactly what
// Load(Save(p)) returns, without the JSON text in between. Every shape
// and cavity goes through the encodeShape → decodeShape pair that Save
// and Load use, so analytic FuncBoundary and Revolve profiles come back
// in their sampled form, which is what tessellation sees after a load.
// What the text does to values is applied in memory:
//   - an omitempty number holding -0 is omitted, so it loads as +0;
//   - a NaN or ±Inf anywhere Save writes a number makes Save fail, so
//     it makes Clone fail too.
//
// Strings are copied as they are: the JSON text keeps valid UTF-8
// unchanged, and part, body and history strings are built from constants
// or read by Load, so they are valid UTF-8. The copy shares no memory the caller can change with p.
func Clone(p *Part) (*Part, error) {
	q := &Part{Name: p.Name}
	if p.History != nil {
		q.History = append([]string{}, p.History...)
	}
	for _, b := range p.Bodies {
		shape, err := cloneShape(b.Shape)
		if err != nil {
			return nil, fmt.Errorf("brep: clone body %q: %w", b.Name, err)
		}
		kind := Solid
		if b.Kind == Surface {
			kind = Surface
		}
		body := &Body{Name: b.Name, Kind: kind, Shape: shape, Phase: b.Phase}
		for _, c := range b.Cavities {
			cav, err := cloneShape(c)
			if err != nil {
				return nil, fmt.Errorf("brep: clone cavity of %q: %w", b.Name, err)
			}
			body.Cavities = append(body.Cavities, cav)
		}
		if err := finiteProps(b); err != nil {
			return nil, fmt.Errorf("brep: clone body %q: %w", b.Name, err)
		}
		q.Bodies = append(q.Bodies, body)
	}
	return q, nil
}

// cloneShape is one shape's trip through Save and Load.
func cloneShape(s Shape) (Shape, error) {
	cs, err := encodeShape(s)
	if err != nil {
		return nil, err
	}
	if err := cs.asLoaded(); err != nil {
		return nil, err
	}
	return decodeShape(cs)
}

// finiteProps fails where Save would fail on a body's phase or its
// stored properties, which Load reads back only in part (the phase).
func finiteProps(b *Body) error {
	m, sp := bodyProps(b)
	if sp != nil {
		return finite(b.Phase, sp.Area)
	}
	c := m.Centroid
	if err := finite(m.Inertia[:]...); err != nil {
		return err
	}
	return finite(b.Phase, m.Volume, c.X, c.Y, c.Z)
}

// asLoaded applies to an encoded shape what its JSON text does between
// Save and Load (see Clone).
func (cs *cadShape) asLoaded() error {
	cs.Z0, cs.Z1, cs.R = omitted(cs.Z0), omitted(cs.Z1), omitted(cs.R)
	cs.X0, cs.X1 = omitted(cs.X0), omitted(cs.X1)
	if err := finite(cs.Z0, cs.Z1, cs.R, cs.X0, cs.X1,
		cs.Center.X, cs.Center.Y, cs.Center.Z, cs.Axis.X, cs.Axis.Y); err != nil {
		return err
	}
	for _, piece := range cs.Pieces {
		if err := finiteVec2(piece...); err != nil {
			return err
		}
	}
	for _, b := range [...]*cadBoundary{cs.Top, cs.Bottom} {
		if b == nil {
			continue
		}
		if err := b.asLoaded(); err != nil {
			return err
		}
	}
	return nil
}

// asLoaded is cadShape.asLoaded for a boundary and its parts.
func (cb *cadBoundary) asLoaded() error {
	cb.X0, cb.Y0, cb.X1, cb.Y1 = omitted(cb.X0), omitted(cb.Y0), omitted(cb.X1), omitted(cb.Y1)
	if err := finite(cb.X0, cb.Y0, cb.X1, cb.Y1); err != nil {
		return err
	}
	if err := finiteVec2(cb.Samples...); err != nil {
		return err
	}
	for _, sp := range cb.Spans {
		if err := finiteVec2(sp.P0, sp.P1, sp.P2, sp.P3); err != nil {
			return err
		}
	}
	for _, part := range cb.Parts {
		if err := part.asLoaded(); err != nil {
			return err
		}
	}
	return nil
}

// omitted returns what an omitempty number loads back as: a zero of
// either sign is left out of the text, so -0 becomes +0.
func omitted(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// finite reports the first value JSON cannot encode.
func finite(vs ...float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("unsupported value: %v", v)
		}
	}
	return nil
}

func finiteVec2(ps ...geom.Vec2) error {
	for _, p := range ps {
		if err := finite(p.X, p.Y); err != nil {
			return err
		}
	}
	return nil
}

func decodeShape(cs cadShape) (Shape, error) {
	switch cs.Kind {
	case "prism":
		top, err := decodeBoundary(cs.Top)
		if err != nil {
			return nil, err
		}
		bot, err := decodeBoundary(cs.Bottom)
		if err != nil {
			return nil, err
		}
		return &Prism{Top: top, Bottom: bot, Z0: cs.Z0, Z1: cs.Z1}, nil
	case "sphere":
		return &Sphere{Center: cs.Center, R: cs.R}, nil
	case "revolve":
		if len(cs.Pieces) == 0 {
			return nil, fmt.Errorf("revolve with no profile pieces")
		}
		pieces := cs.Pieces
		var breaks []float64
		for i := 0; i+1 < len(pieces); i++ {
			if len(pieces[i]) < 2 {
				return nil, fmt.Errorf("revolve piece %d too short", i)
			}
			breaks = append(breaks, pieces[i][len(pieces[i])-1].X)
		}
		radius := func(x float64) float64 {
			// Locate the piece: left-continuous at breaks.
			pi := 0
			for pi+1 < len(pieces) && x > pieces[pi][len(pieces[pi])-1].X {
				pi++
			}
			return lerpSamples(pieces[pi])(x)
		}
		rev := &Revolve{
			X0: cs.X0, X1: cs.X1, Tag: cs.Tag, Axis: cs.Axis,
			Radius: radius, Breaks: breaks,
		}
		if err := rev.Validate(); err != nil {
			return nil, err
		}
		return rev, nil
	default:
		return nil, fmt.Errorf("unknown shape kind %q", cs.Kind)
	}
}

func decodeBoundary(cb *cadBoundary) (Boundary, error) {
	if cb == nil {
		return nil, fmt.Errorf("missing boundary")
	}
	switch cb.Kind {
	case "line":
		return &LineBoundary{X0: cb.X0, Y0: cb.Y0, X1: cb.X1, Y1: cb.Y1}, nil
	case "func":
		samples := cb.Samples
		if len(samples) < 2 {
			return nil, fmt.Errorf("func boundary with %d samples", len(samples))
		}
		if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i].X < samples[j].X }) {
			return nil, fmt.Errorf("func boundary samples not x-sorted")
		}
		return &FuncBoundary{
			X0: cb.X0, X1: cb.X1, Tag: cb.Tag,
			F: lerpSamples(samples),
		}, nil
	case "spline":
		s := &spline.Spline{}
		for _, sp := range cb.Spans {
			s.Spans = append(s.Spans, spline.CubicBezier{P0: sp.P0, P1: sp.P1, P2: sp.P2, P3: sp.P3})
		}
		if len(s.Spans) == 0 {
			return nil, fmt.Errorf("spline boundary with no spans")
		}
		return &SplineBoundary{S: s}, nil
	case "composite":
		c := &CompositeBoundary{}
		for _, part := range cb.Parts {
			dec, err := decodeBoundary(part)
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, dec)
		}
		if len(c.Parts) == 0 {
			return nil, fmt.Errorf("empty composite boundary")
		}
		return c, nil
	default:
		return nil, fmt.Errorf("unknown boundary kind %q", cb.Kind)
	}
}

// lerpSamples returns a piecewise-linear y(x) through x-sorted samples.
func lerpSamples(samples []geom.Vec2) func(float64) float64 {
	return func(x float64) float64 {
		i := sort.Search(len(samples), func(i int) bool { return samples[i].X >= x })
		if i == 0 {
			return samples[0].Y
		}
		if i >= len(samples) {
			return samples[len(samples)-1].Y
		}
		a, b := samples[i-1], samples[i]
		if b.X == a.X {
			return a.Y
		}
		t := (x - a.X) / (b.X - a.X)
		return a.Y + t*(b.Y-a.Y)
	}
}
