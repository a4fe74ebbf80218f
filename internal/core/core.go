// Package core implements ObfusCADe, the paper's contribution: CAD-model
// obfuscation against counterfeiting. A designer embeds security features
// into a model so that the part manufactures correctly only under a
// secret combination of processing conditions — the AM analogue of logic
// locking (ref [10]). Under every other combination the printed artifact
// is visibly or structurally defective, and the presence/absence of the
// embedded features authenticates genuine parts.
//
// Two feature families from the paper are implemented:
//
//   - The spline split feature (§3.1): a zero-volume split through the
//     part whose tessellation mismatch prints invisibly only at high STL
//     resolution in the x-y orientation.
//   - The embedded sphere feature (§3.2): a sphere whose printed content
//     (model vs. dissolvable support) depends on the CAD operation order
//     the manufacturer applies before export.
package core

import (
	"fmt"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mech"
	"obfuscade/internal/tessellate"
)

// SplitOptions configures the spline split feature.
type SplitOptions struct {
	// Body names the prismatic body to split.
	Body string
	// Amplitude is the wave amplitude of the split curve in mm.
	Amplitude float64
	// Waves is the number of half-waves across the gauge region.
	Waves int
	// Dims are the tensile-bar dimensions the curve is routed through.
	Dims brep.TensileBarDims
}

// SphereOptions configures the embedded sphere feature.
type SphereOptions struct {
	// Host names the solid body to embed into.
	Host string
	// Center and Radius locate the sphere.
	Center geom.Vec3
	Radius float64
}

// FeatureKind labels an embedded security feature.
type FeatureKind string

const (
	// FeatureSplineSplit is the §3.1 feature.
	FeatureSplineSplit FeatureKind = "spline-split"
	// FeatureEmbeddedSphere is the §3.2 feature.
	FeatureEmbeddedSphere FeatureKind = "embedded-sphere"
)

// FeatureRecord describes one embedded feature (kept in the secret
// manifest).
type FeatureRecord struct {
	Kind FeatureKind
	// Detail is a human-readable parameter summary.
	Detail string
	// Sphere holds the sphere geometry for authentication checks.
	Sphere *SphereOptions
}

// Key is the secret processing combination that manufactures the
// protected model correctly — the ObfusCADe process key.
type Key struct {
	// Resolution is the required STL export setting.
	Resolution tessellate.Resolution
	// Orientation is the required print orientation.
	Orientation mech.Orientation
	// RestoreSphere is the secret CAD operation: cut the spherical
	// cavity and re-embed a *solid* sphere before export (§3.2.2's
	// "with material removal, solid" variant). Without it the sphere
	// region prints as dissolvable support.
	RestoreSphere bool
}

// String implements fmt.Stringer.
func (k Key) String() string {
	return fmt.Sprintf("res=%s orient=%s restore-sphere=%t",
		k.Resolution.Name, k.Orientation, k.RestoreSphere)
}

// Manifest is the IP owner's secret record of a protected design.
type Manifest struct {
	PartName string
	Features []FeatureRecord
	// Key is the unique correct processing combination.
	Key Key
	// CADDigest fingerprints the distributed CAD file.
	CADDigest string
}

// Protected pairs the sabotaged (distributed) part with its manifest.
type Protected struct {
	Part     *brep.Part
	Manifest Manifest
}

// ProtectSplineSplit embeds the spline split feature into the part and
// returns the manifest entry. The correct key for this feature is
// (Fine or Custom STL resolution, x-y orientation).
func ProtectSplineSplit(p *brep.Part, opts SplitOptions) (FeatureRecord, error) {
	if opts.Body == "" {
		opts.Body = "bar"
	}
	if opts.Amplitude == 0 {
		opts.Amplitude = 2
	}
	if opts.Waves == 0 {
		opts.Waves = 3
	}
	zero := brep.TensileBarDims{}
	if opts.Dims == zero {
		opts.Dims = brep.DefaultTensileBar()
	}
	s, err := brep.SplitSplineThroughGauge(opts.Dims, opts.Amplitude, opts.Waves)
	if err != nil {
		return FeatureRecord{}, fmt.Errorf("core: split spline: %w", err)
	}
	if err := brep.SplitBySpline(p, opts.Body, s); err != nil {
		return FeatureRecord{}, fmt.Errorf("core: split feature: %w", err)
	}
	return FeatureRecord{
		Kind: FeatureSplineSplit,
		Detail: fmt.Sprintf("body=%s amplitude=%g waves=%d arc=%.3g mm",
			opts.Body, opts.Amplitude, opts.Waves, s.ArcLength()),
	}, nil
}

// ProtectEmbeddedSphere embeds the sphere feature in its sabotaged state:
// a solid sphere body *without* material removal, which slices as a
// hollow region (Table 3 row 1). Only a manufacturer who knows the secret
// CAD operation (ApplyKey with RestoreSphere) obtains a dense part.
func ProtectEmbeddedSphere(p *brep.Part, opts SphereOptions) (FeatureRecord, error) {
	if opts.Host == "" {
		opts.Host = "prism"
	}
	if opts.Radius <= 0 {
		return FeatureRecord{}, fmt.Errorf("core: sphere radius must be positive")
	}
	err := brep.EmbedSphere(p, opts.Host, opts.Center, opts.Radius, brep.EmbedOpts{})
	if err != nil {
		return FeatureRecord{}, fmt.Errorf("core: sphere feature: %w", err)
	}
	o := opts
	return FeatureRecord{
		Kind: FeatureEmbeddedSphere,
		Detail: fmt.Sprintf("host=%s c=%v r=%g (distributed without material removal)",
			opts.Host, opts.Center, opts.Radius),
		Sphere: &o,
	}, nil
}

// ClonePart deep-copies a part. The copy is exactly what loading the
// part's native serialisation returns, but no text is written or read
// (see brep.Clone).
func ClonePart(p *brep.Part) (*brep.Part, error) {
	return brep.Clone(p)
}

// ApplyKey returns a copy of the protected part transformed by the
// CAD-operation component of the key: with RestoreSphere, the sabotaged
// sphere body is replaced by the material-removal + solid-sphere sequence
// that prints dense (§3.2.2). The resolution and orientation components
// are applied downstream by the manufacturing pipeline.
func ApplyKey(prot *Protected, key Key) (*brep.Part, error) {
	part, err := ClonePart(prot.Part)
	if err != nil {
		return nil, err
	}
	if !key.RestoreSphere {
		return part, nil
	}
	var sphere *SphereOptions
	for _, f := range prot.Manifest.Features {
		if f.Kind == FeatureEmbeddedSphere {
			sphere = f.Sphere
		}
	}
	if sphere == nil {
		return part, nil // key bit set but no sphere feature: no-op
	}
	if !part.RemoveBody("sphere") {
		return nil, fmt.Errorf("core: protected part lost its sphere body")
	}
	if err := brep.EmbedSphere(part, sphere.Host, sphere.Center, sphere.Radius,
		brep.EmbedOpts{MaterialRemoval: true}); err != nil {
		return nil, fmt.Errorf("core: restore sphere: %w", err)
	}
	return part, nil
}
