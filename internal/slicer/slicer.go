// Package slicer converts triangle meshes into stacks of 2D layers with
// classified regions and toolpaths, emulating the slicing stage of the AM
// process chain (CatalystEX in the paper).
//
// The slicer's semantics are the ones the ObfusCADe features exploit:
//
//   - Each shell's cross-section contours are chained independently, so a
//     multi-body STL yields per-body contours whose mutual mismatch is the
//     tessellation gap of paper Fig. 4.
//   - Region classification uses a signed odd-winding rule ("material
//     where the signed winding number is positive and odd"), the rule that
//     reproduces all four rows of the paper's Table 3 and carves the
//     micro-void band along a spline split.
package slicer

import (
	"context"
	"fmt"
	"math"
	"sort"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/obs"
	"obfuscade/internal/parallel"
	"obfuscade/internal/trace"
)

// Slicing metrics: per-call latency plus deterministic layer/contour
// totals (counted once after the parallel fan-out assembles, so the
// values never depend on scheduling).
var (
	stSlice   = obs.Stage("slicer.slice")
	mLayers   = obs.Default().Counter("slicer.layers.sliced")
	mContours = obs.Default().Counter("slicer.contours")
)

// Options configures slicing. The defaults (DefaultOptions) match the
// paper's FDM setup: 0.1778 mm layer resolution, solid model interior.
type Options struct {
	// LayerHeight is the slice thickness in mm (paper: 0.01778 cm).
	LayerHeight float64
	// SnapTol is the endpoint snap distance when chaining cross-section
	// segments into contours, mm.
	SnapTol float64
	// RoadWidth is the extrusion road width in mm, used for toolpath
	// spacing.
	RoadWidth float64
	// InterfaceRange is the maximum distance at which two bodies'
	// boundaries are considered to form an interface (seam), mm.
	InterfaceRange float64
	// MinContourArea discards contour loops smaller than this area, mm^2.
	MinContourArea float64
	// InfillDensity is the fraction of interior raster lines actually
	// printed, in (0, 1]. Zero means 1 (solid interior, the paper's
	// setting). A counterfeit shop printing sparse to save material is
	// caught by the weight/density inspection.
	InfillDensity float64
	// Perimeters is the number of concentric outline walls per contour
	// (inset by one road width each). Zero means 1.
	Perimeters int
}

// DefaultOptions returns the slicing properties used throughout the paper
// (§3.1): 0.1778 mm layers, solid interior.
func DefaultOptions() Options {
	return Options{
		LayerHeight:    0.1778,
		SnapTol:        1e-4,
		RoadWidth:      0.5,
		InterfaceRange: 0.75,
		MinContourArea: 1e-6,
	}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.LayerHeight <= 0 {
		return fmt.Errorf("slicer: LayerHeight must be positive, got %g", o.LayerHeight)
	}
	if o.SnapTol <= 0 {
		return fmt.Errorf("slicer: SnapTol must be positive, got %g", o.SnapTol)
	}
	if o.RoadWidth <= 0 {
		return fmt.Errorf("slicer: RoadWidth must be positive, got %g", o.RoadWidth)
	}
	if o.InfillDensity < 0 || o.InfillDensity > 1 {
		return fmt.Errorf("slicer: InfillDensity %g out of (0, 1]", o.InfillDensity)
	}
	if o.Perimeters < 0 || o.Perimeters > 16 {
		return fmt.Errorf("slicer: Perimeters %d out of [0, 16]", o.Perimeters)
	}
	return nil
}

// Contour is one cross-section loop with provenance.
type Contour struct {
	// Poly is the loop geometry. Its winding direction encodes shell
	// orientation: outward shells produce loops winding CCW around
	// material.
	Poly geom.Polygon
	// Shell and Body name the originating shell and CAD body.
	Shell, Body string
	// Orient is the originating shell's orientation.
	Orient mesh.Orientation
	// Closed is false for chains that failed to close (damaged meshes).
	Closed bool
}

// Layer is one slice of the model.
type Layer struct {
	// Index is the zero-based layer number.
	Index int
	// Z is the slicing plane height.
	Z float64
	// Contours lists the cross-section loops of every shell.
	Contours []Contour
	// Interfaces describes where distinct bodies meet in this layer.
	Interfaces []BodyInterface
	// probe caches per-contour bounding boxes and y-buckets for the
	// winding probes. Built by the slicer after the contours assemble;
	// nil for hand-built layers, which fall back to the unindexed scans.
	probe *probeIndex
}

// Result is a sliced model.
type Result struct {
	Opts   Options
	Bounds geom.AABB
	Layers []Layer
	// BodyNames lists the distinct body names seen, sorted.
	BodyNames []string
}

// Slice cuts the mesh into horizontal layers. The mesh must sit at or
// above z = 0; layers are placed at the mid-height of each slab, the
// convention of the paper's slicer.
func Slice(m *mesh.Mesh, opts Options) (*Result, error) {
	return SliceCtx(context.Background(), m, opts)
}

// SliceReference runs the retained naive (pre-index) kernels. It is the
// DeepEqual oracle the indexed kernels are property-tested against, and
// the sanitizer's proof surface: other packages compare SliceReference
// output across a transformation to show the transformation is
// slicing-invariant without depending on the indexed fast path.
func SliceReference(m *mesh.Mesh, opts Options) (*Result, error) {
	return sliceNaive(m, opts)
}

// SliceCtx is Slice with trace propagation: the stage span parents to
// the span carried by ctx, and the per-layer fan-out emits a batch
// instant recording the deterministic layer count.
func SliceCtx(ctx context.Context, m *mesh.Mesh, opts Options) (*Result, error) {
	return SliceIndexedCtx(ctx, m, opts, nil)
}

// SliceIndexedCtx is SliceCtx with an optional pre-built z-sweep index
// (BuildIndex). A nil index is built inline, exactly as SliceCtx always
// has; an injected index skips the serial build prologue, so a caller
// can time the index build and the slice separately. An injected index
// that fails the compatibility guard (wrong layer grid or shell shape —
// a caller bug) is counted on slicer.index.rejected and rebuilt, so a
// bad injection can cost time but never correctness.
func SliceIndexedCtx(ctx context.Context, m *mesh.Mesh, opts Options, ix *Index) (res *Result, err error) {
	span := stSlice.Start()
	ctx, tsp := trace.StartSpan(ctx, "stage", "slicer.slice")
	defer func() {
		tsp.End()
		span.EndErr(err)
	}()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	bounds := m.Bounds()
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("slicer: empty mesh")
	}
	res = &Result{Opts: opts, Bounds: bounds}
	bodySet := map[string]bool{}
	for _, s := range m.Shells {
		bodySet[s.Body] = true
	}
	for b := range bodySet {
		res.BodyNames = append(res.BodyNames, b)
	}
	sort.Strings(res.BodyNames)

	nLayers, err := layerCount(bounds, opts.LayerHeight)
	if err != nil {
		return nil, err
	}
	// The sweep index is built once, serially, before the fan-out: every
	// layer bucket then holds exactly the triangles whose z-extent spans
	// that plane, so each layer task does O(crossings) work instead of
	// rescanning the whole shell. An injected index (same mesh sliced
	// under the same grid) skips that serial prologue.
	var idx *sweepIndex
	if ix != nil && ix.compatible(m, bounds.Min.Z, opts.LayerHeight, nLayers) {
		idx = ix.sweep
	} else {
		if ix != nil {
			mIndexRejected.Inc()
		}
		idx = buildSweepIndex(ctx, m, bounds.Min.Z, opts.LayerHeight, nLayers)
	}

	// Each layer depends only on its own plane height, so layers slice
	// concurrently on the worker pool and assemble by index — the stack is
	// identical to a serial run. Tasks take the worker context and check it
	// between shells, so a deadline set by the job service interrupts a
	// slice mid-stage (even on a 1-worker pool, where ForEachCtx itself
	// only checks between tasks) instead of running the stage to its end.
	res.Layers = make([]Layer, nLayers)
	trace.Instant(ctx, "batch", "slicer.layers", trace.A("count", fmt.Sprint(nLayers)))
	if err := parallel.ForEachCtx(ctx, nLayers, 0, func(tctx context.Context, i int) error {
		z := bounds.Min.Z + (float64(i)+0.5)*opts.LayerHeight
		layer := Layer{Index: i, Z: z}
		sc := chainScratchPool.Get().(*chainScratch)
		for si := range m.Shells {
			if err := tctx.Err(); err != nil {
				chainScratchPool.Put(sc)
				return err
			}
			shell := &m.Shells[si]
			contours := sliceShell(shell, idx.shells[si].layer(i), z, opts, sc)
			layer.Contours = append(layer.Contours, contours...)
		}
		chainScratchPool.Put(sc)
		layer.buildProbeIndex()
		layer.Interfaces = findInterfaces(&layer, opts)
		res.Layers[i] = layer
		return nil
	}); err != nil {
		return nil, err
	}
	mLayers.Add(int64(nLayers))
	var contours int64
	for i := range res.Layers {
		contours += int64(len(res.Layers[i].Contours))
	}
	mContours.Add(contours)
	return res, nil
}

// sliceShell intersects the bucketed triangles of one shell with the
// plane z and chains the directed segments into contours. tris is the
// ascending triangle subset from the sweep index (only triangles whose
// z-extent spans the plane); sc is the pooled scratch. Output is
// byte-identical to sliceShellNaive: the bucket visits crossing triangles
// in the same order as a full rescan, and the snap-grid cell lists stay in
// ascending segment order, so chaining picks the same successor at every
// step.
func sliceShell(s *mesh.Shell, tris []int32, z float64, opts Options, sc *chainScratch) []Contour {
	segs := sc.segs[:0]
	for _, ti := range tris {
		t := s.Tris[ti]
		p, q, ok := t.IntersectPlaneZ(z)
		if !ok {
			continue
		}
		a, b := p.XY(), q.XY()
		if a.Eq(b, opts.SnapTol/4) {
			continue
		}
		// Orient the segment so that material lies to its left:
		// direction = z-hat x facet normal.
		n := t.Normal()
		dir := geom.V2(-n.Y, n.X)
		if b.Sub(a).Dot(dir) < 0 {
			a, b = b, a
		}
		segs = append(segs, chainSeg{a, b})
	}
	sc.segs = segs
	if len(segs) == 0 {
		return nil
	}

	// Chain segments end-to-start using a snap grid. The per-cell index
	// lists live in one arena (sc.entries) and consumed segments are
	// removed by an order-preserving delete, so a cell's list only ever
	// shrinks: chaining a degenerate mesh where many endpoints share a
	// snap cell stays near-linear instead of rescanning consumed entries
	// (the naive take() walk degrades to O(n²) there).
	quant := func(p geom.Vec2) [2]int64 {
		return [2]int64{
			int64(math.Round(p.X / opts.SnapTol)),
			int64(math.Round(p.Y / opts.SnapTol)),
		}
	}
	clear(sc.cellOf)
	sc.segCell = grow(sc.segCell, len(segs))
	nCells := int32(0)
	for i, sg := range segs {
		k := quant(sg.a)
		id, ok := sc.cellOf[k]
		if !ok {
			id = nCells
			nCells++
			sc.cellOf[k] = id
		}
		sc.segCell[i] = id
	}
	sc.cellCnt = grow(sc.cellCnt, int(nCells))
	for c := range sc.cellCnt {
		sc.cellCnt[c] = 0
	}
	for _, c := range sc.segCell {
		sc.cellCnt[c]++
	}
	sc.cellOff = grow(sc.cellOff, int(nCells))
	var acc int32
	for c, n := range sc.cellCnt {
		sc.cellOff[c] = acc
		acc += n
	}
	sc.entries = grow(sc.entries, len(segs))
	// Fill with the cursor trick (ascending segment order per cell), then
	// restore the offsets.
	for i := range segs {
		c := sc.segCell[i]
		sc.entries[sc.cellOff[c]] = int32(i)
		sc.cellOff[c]++
	}
	for c := range sc.cellOff {
		sc.cellOff[c] -= sc.cellCnt[c]
	}
	if cap(sc.used) < len(segs) {
		sc.used = make([]bool, len(segs))
	}
	used := sc.used[:len(segs)]
	for i := range used {
		used[i] = false
	}

	// removeEntry deletes the j-th live entry of cell c, preserving order.
	removeEntry := func(c int32, j int32) {
		off, cnt := sc.cellOff[c], sc.cellCnt[c]
		copy(sc.entries[j:off+cnt-1], sc.entries[j+1:off+cnt])
		sc.cellCnt[c] = cnt - 1
	}
	// consume removes segment i from its own cell list.
	consume := func(i int) {
		c := sc.segCell[i]
		off, cnt := sc.cellOff[c], sc.cellCnt[c]
		for j := off; j < off+cnt; j++ {
			if sc.entries[j] == int32(i) {
				removeEntry(c, j)
				return
			}
		}
	}
	take := func(p geom.Vec2) int {
		k := quant(p)
		// Check the snap cell and its 8 neighbours to be robust at cell
		// boundaries.
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				c, ok := sc.cellOf[[2]int64{k[0] + dx, k[1] + dy}]
				if !ok {
					continue
				}
				off, cnt := sc.cellOff[c], sc.cellCnt[c]
				for j := off; j < off+cnt; j++ {
					i := sc.entries[j]
					if segs[i].a.Eq(p, opts.SnapTol) {
						removeEntry(c, j)
						return int(i)
					}
				}
			}
		}
		return -1
	}

	var contours []Contour
	for i := range segs {
		if used[i] {
			continue
		}
		used[i] = true
		consume(i)
		loop := geom.Polygon{segs[i].a, segs[i].b}
		closed := false
		for {
			next := take(loop[len(loop)-1])
			if next == -1 {
				break
			}
			used[next] = true
			if segs[next].b.Eq(loop[0], opts.SnapTol) {
				closed = true
				break
			}
			loop = append(loop, segs[next].b)
		}
		loop = loop.Simplify(opts.SnapTol / 2)
		if len(loop) < 3 || loop.Area() < opts.MinContourArea {
			continue
		}
		contours = append(contours, Contour{
			Poly:   loop,
			Shell:  s.Name,
			Body:   s.Body,
			Orient: s.Orient,
			Closed: closed,
		})
	}
	return contours
}
