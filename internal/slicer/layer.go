package slicer

import (
	"math"
	"sort"

	"obfuscade/internal/geom"
)

// probeIndex caches read-only, derived geometry for one layer's winding
// probes: the bounding box of every contour and, for every closed one,
// y-buckets of the edges that can cross a horizontal ray. A point outside
// a closed loop's box has winding number zero, and an edge outside a
// point's bucket cannot cross its ray, so indexed probes return precisely
// what the unindexed scans return.
type probeIndex struct {
	bounds []geom.Bounds2 // parallel to Layer.Contours
	rows   []yBuckets     // parallel to Layer.Contours
	// off and edges are the counting-sort arena shared by every contour:
	// bucket k of a contour lists the start vertices of its edges in
	// edges[off[rows.off+k]:off[rows.off+k+1]], in ascending order.
	off   []int32
	edges []int32
}

// yBuckets splits one contour's y-range into n equal buckets; bucket k
// covers y in [y0 + k/scale, y0 + (k+1)/scale). n == 0 means the contour
// has no edge that can count toward a winding number.
type yBuckets struct {
	y0, scale float64
	n, off    int32
}

// bucket maps y to its bucket, clamped to [0, n-1]. It is monotone in y
// (subtraction, scaling, truncation and clamping all are, NaN maps to 0),
// so an edge registered in bucket(minY)..bucket(maxY) is listed in the
// bucket of every y it spans, whatever the rounding.
func (yb *yBuckets) bucket(y float64) int32 {
	f := (y - yb.y0) * yb.scale
	switch {
	case !(f > 0):
		return 0
	case f >= float64(yb.n):
		return yb.n - 1
	}
	return int32(f)
}

// span returns the buckets an edge a→b is listed in. ok is false for
// edges that never count toward a winding number (geom.EdgeWinding needs
// minY <= y < maxY): horizontal edges and edges with NaN coordinates.
func (yb *yBuckets) span(a, b geom.Vec2) (lo, hi int32, ok bool) {
	y0, y1 := a.Y, b.Y
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	if !(y0 < y1) {
		return 0, 0, false
	}
	return yb.bucket(y0), yb.bucket(y1), true
}

// buildProbeIndex computes the per-contour bounds and y-buckets. The
// slicer calls it once per layer, after chaining and before interface
// probing; it is deterministic, so serial and pooled runs produce
// identical layers.
//
// A contour's bucket count is its edge count scaled by height / total
// edge y-extent: about n/2 for a convex loop, fewer when edges span much
// of the height. An edge is listed in at most extent*scale + 2 buckets,
// so the arena holds at most about 3n entries for any loop.
func (l *Layer) buildProbeIndex() {
	px := &probeIndex{
		bounds: make([]geom.Bounds2, len(l.Contours)),
		rows:   make([]yBuckets, len(l.Contours)),
	}
	nOff := 0
	for i := range l.Contours {
		c := &l.Contours[i]
		b := c.Poly.Bounds()
		px.bounds[i] = b
		if !c.Closed {
			continue
		}
		n := len(c.Poly)
		var extent float64
		for j := 0; j < n; j++ {
			extent += math.Abs(c.Poly[(j+1)%n].Y - c.Poly[j].Y)
		}
		height := b.Max.Y - b.Min.Y
		if !(height > 0) || !(extent > 0) || math.IsInf(extent, 0) {
			continue // no edge can count
		}
		nb := int32(max(1, min(float64(n/2), float64(n)*height/extent)))
		px.rows[i] = yBuckets{y0: b.Min.Y, scale: float64(nb) / height, n: nb, off: int32(nOff)}
		nOff += int(nb) + 1
	}
	// Counting sort into one arena: count each bucket's edges, turn the
	// counts into start offsets, then place the edges with a cursor per
	// bucket, which leaves each cursor at the next bucket's start.
	px.off = make([]int32, nOff)
	var acc int32
	for i := range px.rows {
		yb := &px.rows[i]
		if yb.n == 0 {
			continue
		}
		poly := l.Contours[i].Poly
		cnt := px.off[yb.off+1 : yb.off+1+yb.n]
		for j, n := 0, len(poly); j < n; j++ {
			if lo, hi, ok := yb.span(poly[j], poly[(j+1)%n]); ok {
				for k := lo; k <= hi; k++ {
					cnt[k]++
				}
			}
		}
		px.off[yb.off] = acc
		for k, n := range cnt {
			cnt[k] = acc
			acc += n
		}
	}
	px.edges = make([]int32, acc)
	for i := range px.rows {
		yb := &px.rows[i]
		if yb.n == 0 {
			continue
		}
		poly := l.Contours[i].Poly
		cur := px.off[yb.off+1 : yb.off+1+yb.n]
		for j, n := 0, len(poly); j < n; j++ {
			if lo, hi, ok := yb.span(poly[j], poly[(j+1)%n]); ok {
				for k := lo; k <= hi; k++ {
					px.edges[cur[k]] = int32(j)
					cur[k]++
				}
			}
		}
	}
	l.probe = px
}

// winding returns contour i's winding number around p from the edges in
// p's y-bucket, behind the exact bounding-box reject. Without a probe
// index it is the full Polygon.WindingNumber scan.
func (l *Layer) winding(i int, p geom.Vec2) int {
	poly := l.Contours[i].Poly
	px := l.probe
	if px == nil {
		return poly.WindingNumber(p)
	}
	if !px.bounds[i].ContainsPoint(p) {
		return 0
	}
	yb := &px.rows[i]
	if yb.n == 0 {
		return 0
	}
	k := yb.off + yb.bucket(p.Y)
	n := int32(len(poly))
	w := 0
	for _, j := range px.edges[px.off[k]:px.off[k+1]] {
		next := j + 1
		if next == n {
			next = 0
		}
		w += geom.EdgeWinding(poly[j], poly[next], p)
	}
	return w
}

// SignedWinding returns the summed winding number of every closed contour
// around p. Outward shells contribute positively around material, cavity
// and reversed-surface shells negatively.
func (l *Layer) SignedWinding(p geom.Vec2) int {
	w := 0
	for i := range l.Contours {
		if l.Contours[i].Closed {
			w += l.winding(i, p)
		}
	}
	return w
}

// Material reports whether point p receives model material under the
// slicer's fill rule: signed winding positive and odd. This single rule
// reproduces the paper's observations:
//
//   - plain solid: w=1 -> material;
//   - sphere embedded without removal (solid or surface): |w| even inside
//     the sphere -> no material (support fills it, Table 3 rows 1-2);
//   - removal + solid sphere: w=1 -> material (Table 3 row 3);
//   - removal + surface sphere: w=-1 -> no material (Table 3 row 4);
//   - the doubly-covered slivers where two split bodies overlap: w=2 ->
//     void micro-band along the spline (Fig. 4/8 mechanism).
func (l *Layer) Material(p geom.Vec2) bool {
	w := l.SignedWinding(p)
	return w > 0 && w%2 == 1
}

// BodyWinding returns the winding number of one body's own closed
// contours around p.
func (l *Layer) BodyWinding(body string, p geom.Vec2) int {
	w := 0
	for i := range l.Contours {
		c := &l.Contours[i]
		if c.Closed && c.Body == body {
			w += l.winding(i, p)
		}
	}
	return w
}

// InsideBody reports whether p is inside the named body's material region.
func (l *Layer) InsideBody(body string, p geom.Vec2) bool {
	w := l.BodyWinding(body, p)
	return w > 0 && w%2 == 1
}

// Bodies returns the sorted body names present (with closed contours) in
// this layer.
func (l *Layer) Bodies() []string {
	set := map[string]bool{}
	for _, c := range l.Contours {
		if c.Closed {
			set[c.Body] = true
		}
	}
	out := make([]string, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// InterfaceSample is one probe of the void band between two bodies.
type InterfaceSample struct {
	// P is the probe location on body A's boundary.
	P geom.Vec2
	// Width is the local void width: the distance to body B's boundary.
	// Gap and doubly-covered (overlap) slivers are both voids under the
	// odd-winding fill rule; Overlap distinguishes them.
	Width float64
	// Overlap is true when the probe point lies inside body B (the
	// bodies doubly cover the sliver) and false when it lies outside
	// (open gap).
	Overlap bool
}

// BodyInterface summarises where two bodies meet within one layer.
type BodyInterface struct {
	// BodyA and BodyB are the two body names, BodyA < BodyB.
	BodyA, BodyB string
	// Samples are probes along the interface.
	Samples []InterfaceSample
	// Length is the approximate interface arc length in this layer.
	Length float64
	// Crossings counts proper intersections between the two bodies'
	// contour boundaries. Zero with a non-empty interface means the
	// bodies are fully separated in this layer — the per-layer
	// discontinuity of paper Fig. 7a. Interleaved tessellation mismatch
	// (x-y orientation) yields many crossings in every layer, which is
	// why the x-y sliced model never shows a discontinuity.
	Crossings int
}

// MaxWidth returns the widest void probe of the interface.
func (bi *BodyInterface) MaxWidth() float64 {
	var w float64
	for _, s := range bi.Samples {
		if s.Width > w {
			w = s.Width
		}
	}
	return w
}

// MeanWidth returns the average void width over all probes.
func (bi *BodyInterface) MeanWidth() float64 {
	if len(bi.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range bi.Samples {
		sum += s.Width
	}
	return sum / float64(len(bi.Samples))
}

// HasOverlap reports whether any probe found the bodies doubly covering.
func (bi *BodyInterface) HasOverlap() bool {
	for _, s := range bi.Samples {
		if s.Overlap {
			return true
		}
	}
	return false
}

// findInterfaces probes each pair of bodies in the layer for near-contact
// regions. Each body's boundary edges and their grid are built once per
// layer and shared by every pair the body takes part in.
func findInterfaces(l *Layer, opts Options) []BodyInterface {
	bodies := l.Bodies()
	if len(bodies) < 2 || !(opts.InterfaceRange >= 0) {
		// One body has no pair; a negative or NaN range admits no probe.
		return nil
	}
	edges := make([]bodyEdges, len(bodies))
	for i, b := range bodies {
		edges[i] = buildBodyEdges(l, b, opts.InterfaceRange)
	}
	var out []BodyInterface
	for i := 0; i < len(bodies); i++ {
		for j := i + 1; j < len(bodies); j++ {
			bi := probeInterface(l, &edges[i], &edges[j], opts)
			if len(bi.Samples) > 0 {
				out = append(out, bi)
			}
		}
	}
	return out
}

// nearTol is the probe distance below which the perpendicularity filters
// are skipped: offsets this small have numerically meaningless direction.
const nearTol = 0.02

// probeEdge is one boundary segment of a body with its bounding box.
type probeEdge struct {
	a, b   geom.Vec2
	bounds geom.Bounds2
}

// bodyEdges is one body's closed-contour boundary in a layer: its edges in
// edge order (contour order, then vertex order within the contour — the
// order of a plain loop scan) and a uniform grid over them. Cell (cx, cy)
// covers [x0 + cx/scale, x0 + (cx+1)/scale) × the same in y, and lists,
// ascending, every edge whose bounding box meets it.
type bodyEdges struct {
	name   string
	edges  []probeEdge
	bounds geom.Bounds2 // union of the edge boxes
	x0, y0 float64
	scale  float64
	nx, ny int
	off    []int32 // nx*ny+1 offsets into ids
	ids    []int32
}

// The edge grid holds at most maxCellsPerEdge cells per edge plus
// minCells, so an interface range that is tiny next to the body cannot
// make the grid cost much more than the edges themselves.
const (
	maxCellsPerEdge = 4
	minCells        = 4096
)

// buildBodyEdges collects the body's edges and grids them with square
// cells of side cell (the interface range), coarsened where that would
// exceed the cell cap.
func buildBodyEdges(l *Layer, body string, cell float64) bodyEdges {
	total := 0
	for i := range l.Contours {
		if c := &l.Contours[i]; c.Closed && c.Body == body {
			total += len(c.Poly)
		}
	}
	inf := math.Inf(1)
	be := bodyEdges{
		name:   body,
		edges:  make([]probeEdge, 0, total),
		bounds: geom.Bounds2{Min: geom.V2(inf, inf), Max: geom.V2(-inf, -inf)},
	}
	for i := range l.Contours {
		c := &l.Contours[i]
		if !c.Closed || c.Body != body {
			continue
		}
		n := len(c.Poly)
		for j := 0; j < n; j++ {
			a, b := c.Poly[j], c.Poly[(j+1)%n]
			eb := geom.Bounds2{
				Min: geom.V2(math.Min(a.X, b.X), math.Min(a.Y, b.Y)),
				Max: geom.V2(math.Max(a.X, b.X), math.Max(a.Y, b.Y)),
			}
			be.edges = append(be.edges, probeEdge{a: a, b: b, bounds: eb})
			be.bounds.Min.X = math.Min(be.bounds.Min.X, eb.Min.X)
			be.bounds.Min.Y = math.Min(be.bounds.Min.Y, eb.Min.Y)
			be.bounds.Max.X = math.Max(be.bounds.Max.X, eb.Max.X)
			be.bounds.Max.Y = math.Max(be.bounds.Max.Y, eb.Max.Y)
		}
	}
	// Coarsen the cells until (w/cell+1)(h/cell+1) <= limit/4+limit/2+1.
	// A point-sized body or non-finite coordinates get a single cell.
	w := be.bounds.Max.X - be.bounds.Min.X
	h := be.bounds.Max.Y - be.bounds.Min.Y
	limit := float64(maxCellsPerEdge*len(be.edges) + minCells)
	cell = max(cell, 2*math.Sqrt(w*h/limit), 2*(w+h)/limit)
	be.x0, be.y0, be.nx, be.ny = be.bounds.Min.X, be.bounds.Min.Y, 1, 1
	if cell > 0 && !math.IsInf(w+h, 0) {
		be.scale = 1 / cell
		be.nx = int(w*be.scale) + 1
		be.ny = int(h*be.scale) + 1
	}
	cells := be.nx * be.ny
	be.off = make([]int32, cells+1)
	cnt := be.off[1:]
	for i := range be.edges {
		eb := &be.edges[i].bounds
		cx0, cy0 := be.cell(eb.Min)
		cx1, cy1 := be.cell(eb.Max)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				cnt[cy*be.nx+cx]++
			}
		}
	}
	var acc int32
	for k, n := range cnt {
		cnt[k] = acc
		acc += n
	}
	be.ids = make([]int32, acc)
	for i := range be.edges {
		eb := &be.edges[i].bounds
		cx0, cy0 := be.cell(eb.Min)
		cx1, cy1 := be.cell(eb.Max)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				k := cy*be.nx + cx
				be.ids[cnt[k]] = int32(i)
				cnt[k]++
			}
		}
	}
	return be
}

// cell maps p to its grid cell, clamped into the grid. Like
// yBuckets.bucket it is monotone in each coordinate, which is what makes
// every grid query below exact.
func (be *bodyEdges) cell(p geom.Vec2) (cx, cy int) {
	return clampCell((p.X-be.x0)*be.scale, be.nx), clampCell((p.Y-be.y0)*be.scale, be.ny)
}

func clampCell(f float64, n int) int {
	switch {
	case !(f > 0):
		return 0
	case f >= float64(n):
		return n - 1
	}
	return int(f)
}

// cellEdges returns the edge indices listed in cell (cx, cy).
func (be *bodyEdges) cellEdges(cx, cy int) []int32 {
	k := cy*be.nx + cx
	return be.ids[be.off[k]:be.off[k+1]]
}

// nearest returns the distance from p to the body's boundary, the unit
// tangent of the nearest edge, and the nearest point on it, considering
// only edges whose squared distance is below limit (+Inf distance when
// none is). The winner is the lexicographic minimum of (squared distance,
// edge index): exactly the first strict minimum of a loop scan in edge
// order, so ties at shared vertices pick the same edge and tangent.
//
// Only the cells meeting p's box of half-width r plus a pad are visited.
// An edge within distance r of p has its bounding box in that box in both
// axes, and the cell map is monotone, so its cell range meets the visited
// one: no candidate is missed. The pad only has to exceed the rounding of
// the distance computation (a few ulps of the coordinates), which it does
// by orders of magnitude for any part up to kilometres in size. Edges listed in several visited cells are
// evaluated more than once, which the index tie-break makes harmless.
func (be *bodyEdges) nearest(p geom.Vec2, r, limit float64) (float64, geom.Vec2, geom.Vec2) {
	h := r + r/16 + 1e-6
	q := geom.Bounds2{Min: geom.V2(p.X-h, p.Y-h), Max: geom.V2(p.X+h, p.Y+h)}
	if !be.bounds.Overlaps(q) {
		return math.Inf(1), geom.Vec2{}, geom.Vec2{}
	}
	cx0, cy0 := be.cell(q.Min)
	cx1, cy1 := be.cell(q.Max)
	best, bestIdx := limit, int32(-1)
	var tangent, closest geom.Vec2
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, ei := range be.cellEdges(cx, cy) {
				e := &be.edges[ei]
				d := e.b.Sub(e.a)
				t := 0.0
				if ll := d.LenSq(); ll != 0 {
					t = geom.Clamp(p.Sub(e.a).Dot(d)/ll, 0, 1)
				}
				c := e.a.Lerp(e.b, t)
				if dsq := c.DistSq(p); dsq < best || (dsq == best && ei < bestIdx) {
					best, bestIdx = dsq, ei
					tangent = d.Normalized()
					closest = c
				}
			}
		}
	}
	if bestIdx < 0 {
		return math.Inf(1), geom.Vec2{}, geom.Vec2{}
	}
	// Hypot, not sqrt(best): bit-compatible with the reference scan's
	// Segment2.Dist so the naive-equivalence goldens compare exactly.
	return closest.Dist(p), tangent, closest
}

func probeInterface(l *Layer, ea, eb *bodyEdges, opts Options) BodyInterface {
	a, b := ea.name, eb.name
	bi := BodyInterface{BodyA: a, BodyB: b}
	// The nearest-boundary search is bounded at the interface range:
	// probes farther than that are discarded regardless of the exact
	// distance, so the bound starts one ulp above rangeSq and the +Inf
	// return means "beyond range". Any squared distance > rangeSq is >=
	// that sentinel (no float lies between), so every probe within range
	// still sees the exhaustive minimum.
	r := opts.InterfaceRange
	sentinel := math.Nextafter(r*r, math.Inf(1))
	// Probe along body A's boundary at road-width/4 spacing. A probe
	// counts as an interface sample only when the offset to B is mostly
	// normal to both boundaries: that selects genuine seam geometry and
	// rejects collinear continuations (e.g. the shared end-cap edges
	// where a split curve terminates).
	step := opts.RoadWidth / 4
	for _, c := range l.Contours {
		if !c.Closed || c.Body != a {
			continue
		}
		n := len(c.Poly)
		for i := 0; i < n; i++ {
			p0 := c.Poly[i]
			p1 := c.Poly[(i+1)%n]
			segLen := p0.Dist(p1)
			tA := p1.Sub(p0).Normalized()
			steps := int(segLen/step) + 1
			for k := 0; k < steps; k++ {
				p := p0.Lerp(p1, (float64(k)+0.5)/float64(steps))
				d, tB, q := eb.nearest(p, r, sentinel)
				if d > r {
					continue
				}
				if d > nearTol {
					if math.Abs(tA.Dot(tB)) < 0.7 {
						continue // boundaries not locally parallel
					}
					// The offset must be mostly normal to B's boundary.
					off := q.Sub(p)
					if off.Len() > 0 && math.Abs(off.Normalized().Dot(tB)) > 0.5 {
						continue // offset runs along B's boundary
					}
					// The space between the boundaries must be a genuine
					// void (gap or doubly-covered sliver), not material
					// of a third body lying between A and B.
					if l.Material(p.Add(off.Scale(0.5))) {
						continue
					}
				}
				bi.Samples = append(bi.Samples, InterfaceSample{
					P:       p,
					Width:   d,
					Overlap: l.BodyWinding(b, p) > 0,
				})
				bi.Length += segLen / float64(steps)
			}
		}
	}
	if len(bi.Samples) > 0 {
		bi.Crossings = countCrossings(ea, eb)
	}
	return bi
}

// countCrossings counts proper boundary intersections between the two
// bodies' edges. Each A edge is tested only against the B edges listed in
// the grid cells its bounding box meets. A pair with overlapping boxes is
// counted only in the cell holding the low corner of the boxes'
// intersection: that corner lies in both boxes, so by monotonicity its
// cell is in both edges' cell ranges, and the pair is tested exactly once
// — the count of the all-pairs scan.
func countCrossings(ea, eb *bodyEdges) int {
	count := 0
	for xi := range ea.edges {
		x := &ea.edges[xi]
		if !x.bounds.Overlaps(eb.bounds) {
			continue
		}
		cx0, cy0 := eb.cell(x.bounds.Min)
		cx1, cy1 := eb.cell(x.bounds.Max)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				for _, yi := range eb.cellEdges(cx, cy) {
					y := &eb.edges[yi]
					if !x.bounds.Overlaps(y.bounds) {
						continue
					}
					if kx, ky := eb.cell(geom.V2(
						math.Max(x.bounds.Min.X, y.bounds.Min.X),
						math.Max(x.bounds.Min.Y, y.bounds.Min.Y),
					)); kx != cx || ky != cy {
						continue
					}
					if (geom.Segment2{A: x.a, B: x.b}).ProperlyIntersects(geom.Segment2{A: y.a, B: y.b}) {
						count++
					}
				}
			}
		}
	}
	return count
}

// Discontinuous reports whether the two bodies form an interface in this
// layer but their boundaries never cross: the cross-sections are fully
// separated islands, the per-layer discontinuity visible in the paper's
// Fig. 7a. Interleaved tessellation mismatch (x-y orientation) produces
// crossings in every layer, so x-y slices are never discontinuous; in the
// x-z orientation the mismatch at a slice's crossing station is a pure gap
// in a large fraction of layers at every STL resolution.
func (l *Layer) Discontinuous(a, b string) bool {
	for _, bi := range l.Interfaces {
		if (bi.BodyA == a && bi.BodyB == b) || (bi.BodyA == b && bi.BodyB == a) {
			// Zero crossings with measurable separation means separated
			// islands. Zero crossings with (near-)zero width means the
			// boundaries are exactly coincident — e.g. a solid body
			// re-embedded into its cavity (§3.2.2) — which prints as
			// continuous material.
			const coincidentTol = 1e-7
			return len(bi.Samples) > 0 && bi.Crossings == 0 && bi.MaxWidth() > coincidentTol
		}
	}
	return false
}

// DiscontinuousLayerFraction returns the fraction of layers containing
// both bodies in which their regions are fully separated.
func (r *Result) DiscontinuousLayerFraction(a, b string) float64 {
	both, disc := 0, 0
	for i := range r.Layers {
		l := &r.Layers[i]
		present := 0
		for _, name := range l.Bodies() {
			if name == a || name == b {
				present++
			}
		}
		if present != 2 {
			continue
		}
		both++
		if l.Discontinuous(a, b) {
			disc++
		}
	}
	if both == 0 {
		return 0
	}
	return float64(disc) / float64(both)
}

// InterfaceStats aggregates the void-band geometry across all layers.
type InterfaceStats struct {
	// Layers is the number of layers with an interface between the pair.
	Layers int
	// MaxWidth is the largest void width found anywhere.
	MaxWidth float64
	// MeanWidth is the sample-weighted mean void width.
	MeanWidth float64
	// Area is the approximate total interface area (length x layer
	// height summed over layers), mm^2.
	Area float64
	// MeanCrossings is the average number of proper boundary crossings
	// per interface layer — the gap/overlap interleaving count of paper
	// Fig. 4's magnified views. High in x-y (the contours weave), low or
	// zero in x-z.
	MeanCrossings float64
}

// InterfaceStatsBetween aggregates interface geometry for a body pair
// over the whole sliced model.
func (r *Result) InterfaceStatsBetween(a, b string) InterfaceStats {
	var st InterfaceStats
	var widthSum float64
	var nSamples, crossings int
	for i := range r.Layers {
		for _, bi := range r.Layers[i].Interfaces {
			if !((bi.BodyA == a && bi.BodyB == b) || (bi.BodyA == b && bi.BodyB == a)) {
				continue
			}
			st.Layers++
			st.Area += bi.Length * r.Opts.LayerHeight
			crossings += bi.Crossings
			for _, s := range bi.Samples {
				widthSum += s.Width
				nSamples++
				if s.Width > st.MaxWidth {
					st.MaxWidth = s.Width
				}
			}
		}
	}
	if nSamples > 0 {
		st.MeanWidth = widthSum / float64(nSamples)
	}
	if st.Layers > 0 {
		st.MeanCrossings = float64(crossings) / float64(st.Layers)
	}
	return st
}
