package core

import (
	"context"
	"fmt"
	"math"

	"obfuscade/internal/gcode"
	"obfuscade/internal/mech"
	"obfuscade/internal/obs"
	"obfuscade/internal/parallel"
	"obfuscade/internal/printer"
	"obfuscade/internal/report"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/trace"
)

// Quality-matrix metrics: one stage span per matrix pass plus key
// counters (enumerated and failed).
var (
	stMatrix      = obs.Stage("core.matrix")
	mMatrixKeys   = obs.Default().Counter("core.matrix.keys")
	mMatrixFailed = obs.Default().Counter("core.matrix.failedkeys")
)

// AllKeys enumerates the processing-condition key space: every STL
// resolution preset x both orientations x the CAD-operation bit (included
// only when the protected part carries a sphere feature).
func AllKeys(prot *Protected) []Key {
	hasSphere := false
	for _, f := range prot.Manifest.Features {
		if f.Kind == FeatureEmbeddedSphere {
			hasSphere = true
		}
	}
	var keys []Key
	for _, res := range tessellate.Presets() {
		for _, o := range []mech.Orientation{mech.XY, mech.XZ} {
			if hasSphere {
				for _, rs := range []bool{false, true} {
					keys = append(keys, Key{Resolution: res, Orientation: o, RestoreSphere: rs})
				}
			} else {
				keys = append(keys, Key{Resolution: res, Orientation: o})
			}
		}
	}
	return keys
}

// MatrixEntry is one row of the quality matrix.
type MatrixEntry struct {
	Key     Key
	Quality QualityReport
	// PrintHours is the simulated print time for this key's G-code in
	// hours, measured in the same pass so the key-space analysis does not
	// re-manufacture (zero when Err is set).
	PrintHours float64
	// Err records this key's manufacture failure; Quality and PrintHours
	// are meaningless when non-nil. Completed entries are retained even
	// when sibling keys fail.
	Err error
	// Provenance is the per-key audit record (STL digest, counter
	// deltas, stage wall times), captured in the same pass. Failed keys
	// carry a record with the Error field set.
	Provenance *Provenance
}

// QualityMatrix manufactures the protected part under every key in the
// key space and grades each artifact — the paper's central claim
// ("the model should print in high quality only under a specific set of
// process flow and printing conditions") made measurable.
//
// Keys are manufactured concurrently on the default worker pool; entries
// come back in key order and each key's pipeline is self-contained, so
// the matrix is byte-identical to a serial run. A failing key does not
// abort the matrix: its entry carries the error, the remaining keys still
// manufacture, and the aggregated error lists every failed key in key
// order.
func QualityMatrix(prot *Protected, prof printer.Profile) ([]MatrixEntry, error) {
	return QualityMatrixWorkers(prot, prof, 0)
}

// QualityMatrixWorkers is QualityMatrix with an explicit worker count
// (<= 0 means the process default). workers == 1 is the serial baseline
// the determinism tests compare against.
func QualityMatrixWorkers(prot *Protected, prof printer.Profile, workers int) ([]MatrixEntry, error) {
	span := stMatrix.Start()
	keys := AllKeys(prot)
	mMatrixKeys.Add(int64(len(keys)))
	ctx, runSpan := trace.StartSpan(context.Background(), "run", "core.matrix",
		trace.A("part", prot.Part.Name), trace.A("keys", fmt.Sprint(len(keys))))
	entries := make([]MatrixEntry, len(keys))
	// Keys that differ only in orientation manufacture the same part at
	// the same resolution, so each (resolution, CAD op) group shares one
	// tessellation. The fan-out stays per key: a group's second key waits
	// on the first one's tessellation, then orients its own clone.
	type group struct {
		res tessellate.Resolution
		rs  bool
	}
	groups := make(map[group]*sharedMesh)
	shared := make([]*sharedMesh, len(keys))
	for i, k := range keys {
		g := group{k.Resolution, k.RestoreSphere}
		if groups[g] == nil {
			groups[g] = new(sharedMesh)
		}
		shared[i] = groups[g]
	}
	err := parallel.ForEachCtx(ctx, len(keys), workers, func(tctx context.Context, i int) error {
		key := keys[i]
		entries[i].Key = key
		kctx, ksp := trace.StartSpan(tctx, "key", key.String())
		defer ksp.End()
		res, err := manufacture(kctx, prot, key, prof, shared[i])
		if err != nil {
			entries[i].Err = err
			fp := failedProvenance(prot.Part.Name, key, 0, err)
			entries[i].Provenance = &fp
			ksp.SetArg("error", "manufacture")
			return err
		}
		sim, err := gcode.SimulateCtx(kctx, res.Run.GCode, gcode.DimensionEliteEnvelope())
		if err != nil {
			entries[i].Err = fmt.Errorf("core: simulate under %v: %w", key, err)
			fp := failedProvenance(prot.Part.Name, key, 0, entries[i].Err)
			entries[i].Provenance = &fp
			ksp.SetArg("error", "simulate")
			return entries[i].Err
		}
		entries[i].Quality = res.Quality
		entries[i].PrintHours = sim.PrintTime / 3600
		prov := NewProvenance(res, sim, 0)
		entries[i].Provenance = &prov
		ksp.SetArg("grade", res.Quality.Grade.String())
		// The voxel grid is the key's largest allocation and nothing after
		// grading and provenance capture reads it (entries keep neither the
		// run nor the build); recycle its storage for the next key.
		res.Run.Build.Grid.Release()
		return nil
	})
	for i := range entries {
		if entries[i].Err != nil {
			mMatrixFailed.Inc()
		}
	}
	runSpan.End()
	span.EndErr(err)
	return entries, err
}

// GoodKeys filters the matrix for keys that produce Good parts. Failed
// entries never count as good.
func GoodKeys(entries []MatrixEntry) []Key {
	var out []Key
	for _, e := range entries {
		if e.Err == nil && e.Quality.Grade == Good {
			out = append(out, e.Key)
		}
	}
	return out
}

// MatrixTable renders the quality matrix. Keys whose manufacture failed
// render with the distinct "failed" grade and dashed quality cells.
func MatrixTable(entries []MatrixEntry) *report.Table {
	t := &report.Table{
		Title: "ObfusCADe quality matrix (processing conditions vs artifact grade)",
		Headers: []string{"STL resolution", "Orientation", "CAD op", "Grade",
			"Surface", "Bond", "Discont."},
	}
	for _, e := range entries {
		op := "-"
		if e.Key.RestoreSphere {
			op = "restore-sphere"
		}
		if e.Err != nil {
			t.AddRow(e.Key.Resolution.Name, e.Key.Orientation.String(), op,
				"failed", "-", "-", "-")
			continue
		}
		surface := "clean"
		if e.Quality.SurfaceDisrupted {
			surface = "disrupted"
		}
		t.AddRow(
			e.Key.Resolution.Name,
			e.Key.Orientation.String(),
			op,
			e.Quality.Grade.String(),
			surface,
			fmt.Sprintf("%.2f", e.Quality.SeamBondQuality),
			fmt.Sprintf("%.0f%%", 100*e.Quality.DiscontinuousFraction),
		)
	}
	return t
}

// KeySpaceReport quantifies the logic-locking analogy (ref [10]): how
// large the key space is and what a brute-force attempt costs, given that
// each wrong key requires a full print-and-test cycle.
type KeySpaceReport struct {
	// TotalKeys is the size of the enumerated key space.
	TotalKeys int
	// GoodKeys is the number of keys yielding Good parts.
	GoodKeys int
	// FailedKeys is the number of keys whose manufacture failed; they are
	// excluded from the print-time statistics.
	FailedKeys int
	// MeanPrintHours is the average simulated print time per attempt.
	MeanPrintHours float64
	// ExpectedBruteForceHours is the expected printing time to find a
	// good key by random search without replacement.
	ExpectedBruteForceHours float64
}

// AnalyzeKeySpace manufactures under every key and measures brute-force
// cost using the G-code simulator's print-time estimates. The matrix and
// the report come from one shared manufacture pass; callers who already
// hold the entries should use KeySpaceFromEntries instead of paying for a
// second pass. A partial matrix (failed keys marked per entry) is still
// analysed and returned alongside the aggregated error.
func AnalyzeKeySpace(prot *Protected, prof printer.Profile) (KeySpaceReport, []MatrixEntry, error) {
	entries, err := QualityMatrix(prot, prof)
	return KeySpaceFromEntries(entries), entries, err
}

// KeySpaceFromEntries derives the brute-force cost report from
// precomputed matrix entries, so the matrix and key-space analyses share
// one manufacture pass per key.
func KeySpaceFromEntries(entries []MatrixEntry) KeySpaceReport {
	rep := KeySpaceReport{TotalKeys: len(entries)}
	var totalHours float64
	completed := 0
	for _, e := range entries {
		if e.Err != nil {
			rep.FailedKeys++
			continue
		}
		completed++
		totalHours += e.PrintHours
	}
	rep.GoodKeys = len(GoodKeys(entries))
	if completed > 0 {
		rep.MeanPrintHours = totalHours / float64(completed)
	}
	if rep.GoodKeys > 0 {
		// Expected draws without replacement until the first success:
		// (N+1)/(G+1).
		expectedTries := float64(rep.TotalKeys+1) / float64(rep.GoodKeys+1)
		rep.ExpectedBruteForceHours = expectedTries * rep.MeanPrintHours
	} else {
		rep.ExpectedBruteForceHours = math.Inf(1)
	}
	return rep
}
