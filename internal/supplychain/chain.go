package supplychain

import (
	"context"
	"fmt"
	"math"
	"time"

	"obfuscade/internal/brep"
	"obfuscade/internal/fea"
	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/mech"
	"obfuscade/internal/mesh"
	"obfuscade/internal/printer"
	"obfuscade/internal/slicer"
	"obfuscade/internal/stl"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/trace"
)

// Pipeline is the full cloud-aware AM process chain of paper Fig. 1:
// CAD -> (FEA) -> STL -> slicing/G-code -> printing -> testing. Each
// stage's artifact is retained so attacks can be injected and mitigations
// evaluated at every hand-off.
type Pipeline struct {
	// Resolution is the CAD -> STL export setting.
	Resolution tessellate.Resolution
	// Orientation is the print orientation (paper Fig. 6).
	Orientation mech.Orientation
	// Printer is the machine profile; its layer height drives slicing.
	Printer printer.Profile
	// PrintOpts configures the virtual build.
	PrintOpts printer.Options
	// SliceOpts overrides slicing options; LayerHeight is always forced
	// to the printer profile's. Zero value uses defaults.
	SliceOpts slicer.Options
	// RunFEA enables the design-stage FEA pass (paper Fig. 3's model
	// optimisation step); adds runtime.
	RunFEA bool
}

// DefaultPipeline returns the paper's baseline process: Coarse STL,
// flat x-y orientation, FDM printer, standard slicing.
func DefaultPipeline() Pipeline {
	return Pipeline{
		Resolution:  tessellate.Coarse,
		Orientation: mech.XY,
		Printer:     printer.DimensionElite(),
	}
}

// Run is the result of executing the pipeline on a part.
type Run struct {
	Part *brep.Part
	// CADBytes is the serialised native CAD file.
	CADBytes []byte
	// Mesh is the tessellated geometry after orientation.
	Mesh *mesh.Mesh
	// STLBytes is the exported binary STL.
	STLBytes []byte
	// STLStats summarises the exported file.
	STLStats stl.Stats
	// Sliced is the layer stack.
	Sliced *slicer.Result
	// Toolpaths are the per-layer tool motions.
	Toolpaths []*slicer.LayerToolpath
	// GCode is the generated program.
	GCode *gcode.Program
	// Build is the virtual print.
	Build *printer.Build
	// DesignKt is the stress concentration found by the design-stage
	// FEA (1 when RunFEA is off or no concentrator is present).
	DesignKt float64
	// StageSeconds records each stage's wall time, keyed by stage name
	// (cad, stl, slice, toolpath, gcode, print, fea); stl includes
	// tessellation only when the run tessellates inline. Values are
	// wall-clock-derived and excluded from determinism contracts; the
	// key set is fixed by the pipeline shape.
	StageSeconds map[string]float64
}

// Execute runs the process chain on the part. The part is not modified.
func (p Pipeline) Execute(part *brep.Part) (*Run, error) {
	return p.ExecuteCtx(context.Background(), part)
}

// ExecuteCtx is Execute with trace propagation: each stage span parents
// to the span carried by ctx (typically a per-key span of the quality
// matrix) and the per-stage wall times are retained in Run.StageSeconds
// for the provenance manifest.
func (p Pipeline) ExecuteCtx(ctx context.Context, part *brep.Part) (*Run, error) {
	return p.ExecuteMeshCtx(ctx, part, nil)
}

// ExecuteMeshCtx is ExecuteCtx on a tessellation the caller already
// holds: master must be tessellate.Tessellate(part, p.Resolution). The
// run orients a clone, so master stays read-only and keys that differ
// only in orientation can share it. A nil master is tessellated inline.
func (p Pipeline) ExecuteMeshCtx(ctx context.Context, part *brep.Part, master *mesh.Mesh) (*Run, error) {
	if err := p.Printer.Validate(); err != nil {
		return nil, err
	}
	ctx, tsp := trace.StartSpan(ctx, "stage", "supplychain.execute")
	defer tsp.End()
	run := &Run{Part: part, DesignKt: 1, StageSeconds: map[string]float64{}}
	t0 := time.Now()
	mark := func(stage string) {
		now := time.Now()
		run.StageSeconds[stage] = now.Sub(t0).Seconds()
		t0 = now
	}

	cadBytes, err := brep.Save(part)
	if err != nil {
		return nil, fmt.Errorf("supplychain: CAD stage: %w", err)
	}
	run.CADBytes = cadBytes
	mark("cad")

	m := master
	if m != nil {
		m = m.Clone() // master may be shared; orient a copy
	} else if m, err = tessellate.Tessellate(part, p.Resolution); err != nil {
		return nil, fmt.Errorf("supplychain: STL export stage: %w", err)
	}
	if p.Orientation == mech.XZ {
		m.Transform(geom.RotateX(math.Pi / 2))
	}
	b := m.Bounds()
	m.Transform(geom.Translate(geom.V3(-b.Min.X, -b.Min.Y, -b.Min.Z)))
	run.Mesh = m

	stlBytes, err := stl.Marshal(m, stl.Binary, part.Name)
	if err != nil {
		return nil, fmt.Errorf("supplychain: STL encode: %w", err)
	}
	run.STLBytes = stlBytes
	run.STLStats = stl.StatsOf(m)
	mark("stl")

	sliceOpts := p.SliceOpts
	if sliceOpts.LayerHeight == 0 && sliceOpts.RoadWidth == 0 {
		sliceOpts = slicer.DefaultOptions()
	}
	sliceOpts.LayerHeight = p.Printer.LayerHeight
	sliceOpts.RoadWidth = p.Printer.RoadWidth
	sliced, err := slicer.SliceCtx(ctx, m, sliceOpts)
	if err != nil {
		return nil, fmt.Errorf("supplychain: slicing stage: %w", err)
	}
	run.Sliced = sliced
	mark("slice")

	paths, err := sliced.Toolpaths()
	if err != nil {
		return nil, fmt.Errorf("supplychain: toolpath stage: %w", err)
	}
	run.Toolpaths = paths
	mark("toolpath")
	prog, err := gcode.Generate(part.Name, paths, gcode.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("supplychain: G-code stage: %w", err)
	}
	run.GCode = prog
	mark("gcode")

	build, err := printer.PrintCtx(ctx, sliced, p.Printer, p.PrintOpts)
	if err != nil {
		return nil, fmt.Errorf("supplychain: printing stage: %w", err)
	}
	run.Build = build
	mark("print")

	if p.RunFEA {
		kt, err := designKt(part, build)
		if err != nil {
			return nil, fmt.Errorf("supplychain: FEA stage: %w", err)
		}
		run.DesignKt = kt
		mark("fea")
	}
	return run, nil
}

// designKt runs the Fig. 9 slit analysis when the build contains a seam;
// pristine builds return 1.
func designKt(part *brep.Part, build *printer.Build) (float64, error) {
	if len(build.Seams) == 0 {
		return 1, nil
	}
	// Use the gauge geometry of the first prismatic body.
	var prism *brep.Prism
	for _, b := range part.Bodies {
		if pr, ok := b.Shape.(*brep.Prism); ok {
			prism = pr
			break
		}
	}
	if prism == nil {
		return 1, nil
	}
	w := prism.Top.Start().Y - prism.Bottom.Start().Y
	if w <= 0 {
		w = 6
	}
	t := prism.Z1 - prism.Z0
	seam := build.Seams[0]
	// The slit depth is the unbonded fraction of the half-width.
	depth := (1 - seam.BondQuality) * w / 4
	if depth <= 0 {
		return 1, nil
	}
	_, kt, err := fea.SplitTipAnalysis(33, w, t, 2000, 0.35, depth, 60)
	if err != nil {
		return 1, err
	}
	return kt, nil
}

// TestPrinted converts a pipeline run into a tensile specimen and tests
// it: the destructive-testing stage of Fig. 1. The material is selected
// from the printer profile and orientation; seam state comes from the
// build. n replicates are tested with the given noise seed.
func (p Pipeline) TestPrinted(run *Run, name string, n int, seed int64) (mech.GroupResult, error) {
	var mat mech.Material
	switch p.Printer.ModelMaterial {
	case "VeroClear":
		mat = mech.VeroClear(p.Orientation)
	default:
		mat = mech.ABS(p.Orientation)
	}
	spec := mech.Specimen{Mat: mat}
	if seam := firstSeam(run.Build); seam != nil {
		spec.SeamPresent = true
		spec.SeamQuality = seam.BondQuality
		kt := run.DesignKt
		if kt <= 1 {
			kt = 2.6 // default slit-tip concentration when FEA was skipped
		}
		spec.Kt = kt
		spec.ModulusKnockdown = 0.03
	}
	return mech.TestGroup(name, spec, n, seed)
}

func firstSeam(b *printer.Build) *printer.SeamRecord {
	if b == nil || len(b.Seams) == 0 {
		return nil
	}
	return &b.Seams[0]
}
