package core

import (
	"context"
	"fmt"
	"sync"

	"obfuscade/internal/brep"
	"obfuscade/internal/mesh"
	"obfuscade/internal/obs"
	"obfuscade/internal/printer"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/trace"
)

// Manufacture metrics: per-run latency plus a deterministic census of the
// grades produced (same seed, same counts — asserted by the obs
// determinism test).
var (
	stManufacture   = obs.Stage("core.manufacture")
	mGradeGood      = obs.Default().Counter("core.grade.good")
	mGradeDegraded  = obs.Default().Counter("core.grade.degraded")
	mGradeDefective = obs.Default().Counter("core.grade.defective")
)

func countGrade(g Grade) {
	switch g {
	case Good:
		mGradeGood.Inc()
	case Degraded:
		mGradeDegraded.Inc()
	case Defective:
		mGradeDefective.Inc()
	}
}

// Grade classifies a manufactured artifact's quality.
type Grade int

const (
	// Good parts are visually clean and structurally sound.
	Good Grade = iota
	// Degraded parts carry visible surface disruption or weakened seams
	// (reduced service life — paper Fig. 8a).
	Degraded
	// Defective parts have structural discontinuities or hollow regions
	// where the design is solid (paper Fig. 7, Fig. 10c).
	Defective
)

// String implements fmt.Stringer.
func (g Grade) String() string {
	switch g {
	case Good:
		return "good"
	case Degraded:
		return "degraded"
	case Defective:
		return "defective"
	default:
		return fmt.Sprintf("Grade(%d)", int(g))
	}
}

// QualityReport summarises the manufactured artifact's fitness.
type QualityReport struct {
	// Grade is the overall classification.
	Grade Grade
	// SurfaceDisrupted reports visible surface defects (Fig. 8a).
	SurfaceDisrupted bool
	// SurfaceDisruptionMM is the widest surface void band in mm.
	SurfaceDisruptionMM float64
	// SeamBondQuality is the weakest body-interface bond (1 when no
	// seam exists).
	SeamBondQuality float64
	// DiscontinuousFraction is the largest per-pair fraction of layers
	// with fully separated bodies (Fig. 7).
	DiscontinuousFraction float64
	// UnexpectedCavities counts internal cavities not present in the
	// design intent (the washed-out sphere of Fig. 10c).
	UnexpectedCavities int
	// Notes explains the grading.
	Notes []string
}

// Quality thresholds for grading.
const (
	// defectiveBond is the seam bond quality below which the part is
	// structurally defective.
	defectiveBond = 0.30
	// degradedBond is the seam bond quality below which service life is
	// reduced.
	degradedBond = 0.70
	// defectiveDiscontinuity is the discontinuous-layer fraction above
	// which the part is defective.
	defectiveDiscontinuity = 0.10
)

// GradeBuild derives a quality report from a virtual build. solidDesign
// declares whether the design intent is a fully dense part (no internal
// cavities expected).
func GradeBuild(b *printer.Build, solidDesign bool) QualityReport {
	rep := QualityReport{SeamBondQuality: 1, SurfaceDisruptionMM: b.SurfaceDisruption}
	if b.SurfaceDisrupted() {
		rep.SurfaceDisrupted = true
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("surface disruption %.3f mm exceeds visible threshold", b.SurfaceDisruption))
	}
	for _, s := range b.Seams {
		if s.BondQuality < rep.SeamBondQuality {
			rep.SeamBondQuality = s.BondQuality
		}
		if s.DiscontinuousFraction > rep.DiscontinuousFraction {
			rep.DiscontinuousFraction = s.DiscontinuousFraction
		}
	}
	if solidDesign {
		rep.UnexpectedCavities = len(b.Grid.InternalCavities())
	}

	switch {
	case rep.UnexpectedCavities > 0:
		rep.Grade = Defective
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("%d internal cavities where design is solid", rep.UnexpectedCavities))
	case rep.DiscontinuousFraction > defectiveDiscontinuity:
		rep.Grade = Defective
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("structural discontinuity in %.0f%% of layers", 100*rep.DiscontinuousFraction))
	case rep.SeamBondQuality < defectiveBond:
		rep.Grade = Defective
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("seam bond quality %.2f below structural minimum", rep.SeamBondQuality))
	case rep.SurfaceDisrupted || rep.SeamBondQuality < degradedBond:
		rep.Grade = Degraded
	default:
		rep.Grade = Good
	}
	return rep
}

// ManufactureResult bundles a pipeline run with its quality grading.
type ManufactureResult struct {
	Key     Key
	Part    *brep.Part
	Run     *supplychain.Run
	Quality QualityReport
}

// Manufacture applies the key's CAD operation, runs the full process
// chain under the key's resolution and orientation, and grades the
// artifact. This is what a manufacturer (legitimate or counterfeit)
// experiences when printing the protected model.
func Manufacture(prot *Protected, key Key, prof printer.Profile) (*ManufactureResult, error) {
	return ManufactureCtx(context.Background(), prot, key, prof)
}

// ManufactureCtx is Manufacture with trace propagation: the stage span
// parents to the span carried by ctx (typically a per-key span of the
// quality matrix) and records the resulting grade once known.
func ManufactureCtx(ctx context.Context, prot *Protected, key Key, prof printer.Profile) (*ManufactureResult, error) {
	return manufacture(ctx, prot, key, prof, nil)
}

// sharedGroup is the work shared by the keys of a quality matrix that
// differ only in orientation: they manufacture the same part at the same
// resolution, so one CAD file and one tessellation serve them all. The
// first of them to run saves and tessellates; the others wait on the
// Once, then orient their own clone of the mesh.
type sharedGroup struct {
	once sync.Once
	cad  []byte
	m    *mesh.Mesh
	err  error
}

// manufacture is ManufactureCtx, taking its CAD file and tessellation
// from shared when shared is non-nil.
func manufacture(ctx context.Context, prot *Protected, key Key, prof printer.Profile, shared *sharedGroup) (res *ManufactureResult, err error) {
	span := stManufacture.Start()
	ctx, tsp := trace.StartSpan(ctx, "stage", "core.manufacture")
	defer func() {
		if err == nil {
			countGrade(res.Quality.Grade)
			tsp.SetArg("grade", res.Quality.Grade.String())
		}
		tsp.End()
		span.EndErr(err)
	}()
	part, err := ApplyKey(prot, key)
	if err != nil {
		return nil, err
	}
	pl := supplychain.Pipeline{
		Resolution:  key.Resolution,
		Orientation: key.Orientation,
		Printer:     prof,
	}
	var (
		master   *mesh.Mesh
		cadBytes []byte
	)
	if shared != nil {
		shared.once.Do(func() {
			if shared.cad, shared.err = brep.Save(part); shared.err != nil {
				shared.err = fmt.Errorf("supplychain: CAD stage: %w", shared.err)
			} else if shared.m, shared.err = tessellate.Tessellate(part, key.Resolution); shared.err != nil {
				shared.err = fmt.Errorf("supplychain: STL export stage: %w", shared.err)
			}
		})
		if shared.err != nil {
			return nil, fmt.Errorf("core: manufacture under %v: %w", key, shared.err)
		}
		master, cadBytes = shared.m, shared.cad
	}
	run, err := pl.ExecuteMeshCtx(ctx, part, master, cadBytes)
	if err != nil {
		return nil, fmt.Errorf("core: manufacture under %v: %w", key, err)
	}
	return &ManufactureResult{
		Key:     key,
		Part:    part,
		Run:     run,
		Quality: GradeBuild(run.Build, true),
	}, nil
}
