package main

import (
	"context"
	"math"
	"time"

	"obfuscade/internal/brep"
	"obfuscade/internal/core"
	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/mech"
	"obfuscade/internal/mesh"
	"obfuscade/internal/printer"
	"obfuscade/internal/slicer"
	"obfuscade/internal/stl"
	"obfuscade/internal/tessellate"
)

// The pipeline stages a replay times, in the order
// supplychain.Pipeline.ExecuteCtx runs them, followed by grading and
// G-code simulation as core.QualityMatrixWorkers does.
const (
	stApplyKey = iota
	stSave
	stTessellate
	stMarshal
	stIndex
	stSlice
	stToolpath
	stGenerate
	stPrint
	stGrade
	stSimulate
	numStages
)

// stageMetrics names each stage's per-layer metric.
var stageMetrics = [numStages]string{
	"core.apply_key_s", "brep.save_s", "tessellate.mesh_s", "stl.marshal_s",
	"slicer.index_s", "slicer.slice_s", "slicer.toolpath_s", "gcode.generate_s",
	"printer.print_s", "core.grade_s", "gcode.simulate_s",
}

// keyReplay is what one key's replay produced and how long each stage
// took.
type keyReplay struct {
	stage     [numStages]time.Duration
	stlSHA    string
	gcodeSHA  string
	grade     string
	triangles int
	stlBytes  int
	layers    int
	commands  int
}

// replayKey manufactures one key by calling each stage's public
// function in turn, with the options the pipeline uses, timing each call
// as a span under parent. Steps the pipeline runs between stages
// (orientation transform, STL stats) stay outside the spans, so they
// land in the residual.
func replayKey(rec *recorder, parent int, op string, prot *core.Protected, key core.Key, prof printer.Profile) (keyReplay, error) {
	ctx := context.Background()
	var kr keyReplay
	var (
		part   *brep.Part
		m      *mesh.Mesh
		stlB   []byte
		idx    *slicer.Index
		sliced *slicer.Result
		paths  []*slicer.LayerToolpath
		prog   *gcode.Program
		build  *printer.Build
		q      core.QualityReport
		err    error
	)
	// step times stage i unless an earlier stage failed.
	step := func(i int, fn func()) {
		if err == nil {
			kr.stage[i] = rec.stage(stageMetrics[i], parent, op, fn)
		}
	}
	sliceOpts := slicer.DefaultOptions()
	sliceOpts.LayerHeight = prof.LayerHeight
	sliceOpts.RoadWidth = prof.RoadWidth

	step(stApplyKey, func() { part, err = core.ApplyKey(prot, key) })
	step(stSave, func() { _, err = brep.Save(part) })
	step(stTessellate, func() { m, err = tessellate.Tessellate(part, key.Resolution) })
	if err != nil {
		return kr, err
	}
	if key.Orientation == mech.XZ {
		m.Transform(geom.RotateX(math.Pi / 2))
	}
	b := m.Bounds()
	m.Transform(geom.Translate(geom.V3(-b.Min.X, -b.Min.Y, -b.Min.Z)))
	step(stMarshal, func() { stlB, err = stl.Marshal(m, stl.Binary, part.Name) })
	if err != nil {
		return kr, err
	}
	stl.StatsOf(m)
	step(stIndex, func() { idx, err = slicer.BuildIndex(ctx, m, sliceOpts) })
	step(stSlice, func() { sliced, err = slicer.SliceIndexedCtx(ctx, m, sliceOpts, idx) })
	step(stToolpath, func() { paths, err = sliced.Toolpaths() })
	step(stGenerate, func() { prog, err = gcode.Generate(part.Name, paths, gcode.DefaultOptions()) })
	step(stPrint, func() { build, err = printer.PrintCtx(ctx, sliced, prof, printer.Options{}) })
	step(stGrade, func() { q = core.GradeBuild(build, true) })
	step(stSimulate, func() { _, err = gcode.SimulateCtx(ctx, prog, gcode.DimensionEliteEnvelope()) })
	if err != nil {
		return kr, err
	}
	build.Grid.Release()

	g, err := gcode.Marshal(prog)
	if err != nil {
		return kr, err
	}
	kr.stlSHA, kr.gcodeSHA, kr.grade = sha(stlB), sha(g), q.Grade.String()
	kr.triangles, kr.stlBytes = m.TriangleCount(), len(stlB)
	kr.layers, kr.commands = len(sliced.Layers), len(prog.Commands)
	return kr, nil
}
