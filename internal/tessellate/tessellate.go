// Package tessellate converts brep parts into triangle meshes, emulating a
// CAD system's STL export stage.
//
// Export quality is controlled by a Resolution (paper Fig. 5): the maximum
// chordal Deviation and the maximum facet Angle. The presets Coarse, Fine
// and Custom correspond to the three export settings investigated in the
// paper's §3.1.
//
// Crucially, each body of a multi-body part is tessellated independently:
// a boundary curve shared between two bodies (the spline split) is sampled
// with each body's own phase, producing mismatched vertices along the
// split — the tessellation-induced gaps of paper Fig. 4.
package tessellate

import (
	"fmt"
	"math"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/obs"
	"obfuscade/internal/spline"
)

// stTessellate times full part tessellations. The quality matrix
// tessellates once per (resolution, CAD op) group and both orientations
// share the mesh, so tessellate.mesh.seconds is the true cost of the
// stage after sharing — exactly the split paperbench reports.
var stTessellate = obs.Stage("tessellate.mesh")

// Resolution is an STL export quality setting (paper Fig. 5).
type Resolution struct {
	// Name labels the preset.
	Name string
	// Deviation is the maximum chordal deviation in mm.
	Deviation float64
	// AngleDeg is the maximum angle between adjacent facets in degrees.
	AngleDeg float64
}

// The three export settings investigated in the paper (§3.1, Fig. 5):
// Coarse and Fine are CAD presets; Custom manually dials Angle and
// Deviation to the smallest practical values.
var (
	Coarse = Resolution{Name: "coarse", Deviation: 0.08, AngleDeg: 30}
	Fine   = Resolution{Name: "fine", Deviation: 0.02, AngleDeg: 10}
	Custom = Resolution{Name: "custom", Deviation: 0.002, AngleDeg: 2}
)

// Presets returns the standard resolutions in coarse-to-fine order.
func Presets() []Resolution { return []Resolution{Coarse, Fine, Custom} }

// ByName returns the preset with the given name.
func ByName(name string) (Resolution, error) {
	for _, r := range Presets() {
		if r.Name == name {
			return r, nil
		}
	}
	return Resolution{}, fmt.Errorf("tessellate: unknown resolution %q", name)
}

// Opts converts the resolution to flattening options with the given
// sampling phase.
func (r Resolution) Opts(phase float64) spline.FlattenOpts {
	return spline.FlattenOpts{
		Deviation: r.Deviation,
		Angle:     r.AngleDeg * math.Pi / 180,
		Phase:     phase,
	}
}

// Validate reports whether the resolution is usable.
func (r Resolution) Validate() error {
	if r.Deviation <= 0 || r.AngleDeg <= 0 {
		return fmt.Errorf("tessellate: resolution %q must have positive deviation and angle", r.Name)
	}
	return nil
}

// Tessellate converts every body of the part into mesh shells. Solid
// bodies produce outward shells; their cavities produce inward shells;
// surface bodies produce open shells oriented concave-out (normals toward
// the enclosed space), matching how the §3.2 surface sphere exports.
func Tessellate(p *brep.Part, res Resolution) (_ *mesh.Mesh, err error) {
	sp := stTessellate.Start()
	defer func() { sp.EndErr(err) }()
	if err := res.Validate(); err != nil {
		return nil, err
	}
	m := &mesh.Mesh{}
	for _, body := range p.Bodies {
		shells, err := tessellateBody(body, res)
		if err != nil {
			return nil, fmt.Errorf("tessellate: body %q: %w", body.Name, err)
		}
		m.Shells = append(m.Shells, shells...)
	}
	if m.TriangleCount() == 0 {
		return nil, fmt.Errorf("tessellate: part %q produced no triangles", p.Name)
	}
	return m, nil
}

func tessellateBody(b *brep.Body, res Resolution) ([]mesh.Shell, error) {
	var shells []mesh.Shell
	main, err := tessellateShape(b.Shape, b.Name, b.Name, res, b.Phase)
	if err != nil {
		return nil, err
	}
	if b.Kind == brep.Surface {
		// Surface bodies bound no material. Export them with reversed
		// (concave-out) orientation; the slicer then reads the region
		// they enclose as void, reproducing Table 3's surface-sphere
		// rows.
		main.FlipOrientation()
		main.Orient = mesh.OpenSurface
	}
	shells = append(shells, main)
	for i, c := range b.Cavities {
		cav, err := tessellateShape(c, fmt.Sprintf("%s-cavity-%d", b.Name, i), b.Name, res, b.Phase)
		if err != nil {
			return nil, err
		}
		cav.FlipOrientation()
		cav.Orient = mesh.Inward
		shells = append(shells, cav)
	}
	return shells, nil
}

func tessellateShape(s brep.Shape, name, bodyName string, res Resolution, phase float64) (mesh.Shell, error) {
	switch t := s.(type) {
	case *brep.Prism:
		return tessellatePrism(t, name, bodyName, res, phase)
	case *brep.Sphere:
		return tessellateSphere(t, name, bodyName, res), nil
	case *brep.Revolve:
		return tessellateRevolve(t, name, bodyName, res)
	default:
		return mesh.Shell{}, fmt.Errorf("unsupported shape %T", s)
	}
}

func tessellatePrism(p *brep.Prism, name, bodyName string, res Resolution, phase float64) (mesh.Shell, error) {
	poly, err := p.Profile(res.Opts(0), phase)
	if err != nil {
		return mesh.Shell{}, err
	}
	tris, err := geom.Triangulate(poly)
	if err != nil {
		return mesh.Shell{}, fmt.Errorf("triangulate profile: %w", err)
	}
	// 2 cap triangles per profile triangle plus at most 2 wall triangles
	// per profile edge, reserved up front so emission never reallocates.
	shell := mesh.Shell{Name: name, Body: bodyName, Orient: mesh.Outward,
		Tris: make([]geom.Triangle, 0, 2*len(tris)+2*len(poly))}
	at := func(v geom.Vec2, z float64) geom.Vec3 { return geom.V3(v.X, v.Y, z) }
	// Caps. The profile is CCW, so the top cap keeps the winding (+Z
	// normal) and the bottom cap reverses it (-Z normal).
	for _, tr := range tris {
		a, b, c := poly[tr[0]], poly[tr[1]], poly[tr[2]]
		shell.Tris = append(shell.Tris,
			geom.Triangle{A: at(a, p.Z1), B: at(b, p.Z1), C: at(c, p.Z1)},
			geom.Triangle{A: at(a, p.Z0), B: at(c, p.Z0), C: at(b, p.Z0)},
		)
	}
	// Side walls.
	n := len(poly)
	for i := 0; i < n; i++ {
		v0 := poly[i]
		v1 := poly[(i+1)%n]
		if v0.Eq(v1, 1e-12) {
			continue
		}
		a := at(v0, p.Z0)
		b := at(v1, p.Z0)
		c := at(v1, p.Z1)
		d := at(v0, p.Z1)
		shell.Tris = append(shell.Tris,
			geom.Triangle{A: a, B: b, C: c},
			geom.Triangle{A: a, B: c, C: d},
		)
	}
	return shell, nil
}

// SphereSegments returns the latitude/longitude subdivision a resolution
// implies for a sphere of radius r, derived from the chordal-deviation and
// facet-angle limits.
func SphereSegments(r float64, res Resolution) (lat, lon int) {
	// Chordal sagitta for an arc of angle a on radius r is r(1-cos(a/2)).
	maxByDev := 2 * math.Acos(geom.Clamp(1-res.Deviation/r, -1, 1))
	maxByAngle := res.AngleDeg * math.Pi / 180
	step := math.Min(maxByDev, maxByAngle)
	if step <= 0 || math.IsNaN(step) {
		step = math.Pi / 8
	}
	lat = int(math.Ceil(math.Pi / step))
	lon = int(math.Ceil(2 * math.Pi / step))
	if lat < 3 {
		lat = 3
	}
	if lon < 6 {
		lon = 6
	}
	return lat, lon
}

func tessellateSphere(s *brep.Sphere, name, bodyName string, res Resolution) mesh.Shell {
	lat, lon := SphereSegments(s.R, res)
	return mesh.SphereShell(name, bodyName, s.Center, s.R, lat, lon)
}

// SplitMismatch locates a spline boundary shared by exactly two prismatic
// bodies of the part and returns the maximum lateral mismatch between the
// two bodies' tessellations of it at the given resolution — the magnitude
// of the Fig. 4 gaps. ok is false when the part has no shared split
// boundary.
func SplitMismatch(p *brep.Part, res Resolution) (mismatch float64, ok bool, err error) {
	type user struct {
		body *brep.Body
	}
	uses := make(map[*spline.Spline][]user)
	for _, b := range p.Bodies {
		prism, isPrism := b.Shape.(*brep.Prism)
		if !isPrism {
			continue
		}
		for _, bd := range []brep.Boundary{prism.Top, prism.Bottom} {
			if sb, isSpline := bd.(*brep.SplineBoundary); isSpline {
				uses[sb.S] = append(uses[sb.S], user{body: b})
			}
		}
	}
	for s, us := range uses {
		if len(us) != 2 {
			continue
		}
		a, err := s.Flatten(res.Opts(us[0].body.Phase))
		if err != nil {
			return 0, false, err
		}
		b, err := s.Flatten(res.Opts(us[1].body.Phase))
		if err != nil {
			return 0, false, err
		}
		m := spline.MaxMismatch(a, b)
		if m2 := spline.MaxMismatch(b, a); m2 > m {
			m = m2
		}
		return m, true, nil
	}
	return 0, false, nil
}
