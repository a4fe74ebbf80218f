package slicer

import (
	"math"
	"math/rand"
	"testing"

	"obfuscade/internal/geom"
	"obfuscade/internal/parallel"
)

// Exactness tests for the layer probe index: the y-bucketed winding
// lookups, the edge grid's nearest-boundary search and its crossing count
// must return exactly what the plain scans return, on inputs built to hit
// the degenerate cases (horizontal and zero-length edges, shared
// vertices, collinear overlaps, points on bucket and cell boundaries).

// randomLoop returns a closed loop of 3..40 vertices. Half the loops snap
// their coordinates to a coarse quarter-unit lattice, which makes
// horizontal edges, repeated vertices, collinear runs and exact distance
// ties common; the other half use free coordinates.
func randomLoop(rng *rand.Rand, ox, oy float64) geom.Polygon {
	n := 3 + rng.Intn(38)
	lattice := rng.Intn(2) == 0
	p := make(geom.Polygon, n)
	for i := range p {
		x, y := rng.Float64()*6, rng.Float64()*6
		if lattice {
			x, y = math.Round(x*4)/4, math.Round(y*4)/4
		}
		p[i] = geom.V2(ox+x, oy+y)
	}
	return p
}

// randomProbeLayer builds a hand-made layer of closed loops on bodies "a"
// and "b" (plus the odd open chain and zero-height loop), with the probe
// index built as the slicer builds it.
func randomProbeLayer(rng *rand.Rand) *Layer {
	l := &Layer{}
	for _, body := range []string{"a", "b"} {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			poly := randomLoop(rng, rng.Float64()*2, rng.Float64()*2)
			if rng.Intn(8) == 0 {
				// Zero-height contour: every edge horizontal.
				for i := range poly {
					poly[i].Y = poly[0].Y
				}
			}
			l.Contours = append(l.Contours, Contour{Poly: poly, Body: body, Closed: rng.Intn(10) != 0})
		}
	}
	l.buildProbeIndex()
	return l
}

// probePoints returns query points that stress the exact cases: every
// vertex, every edge midpoint, points exactly on (and one ulp either side
// of) every bucket boundary, and random points around the layer.
func probePoints(rng *rand.Rand, l *Layer) []geom.Vec2 {
	var pts []geom.Vec2
	for i, c := range l.Contours {
		n := len(c.Poly)
		for j, v := range c.Poly {
			pts = append(pts, v, v.Lerp(c.Poly[(j+1)%n], 0.5))
		}
		yb := l.probe.rows[i]
		b := l.probe.bounds[i]
		for k := int32(0); k <= yb.n; k++ {
			y := yb.y0 + float64(k)/yb.scale
			x := b.Min.X + rng.Float64()*(b.Max.X-b.Min.X)
			for _, yy := range []float64{y, math.Nextafter(y, math.Inf(-1)), math.Nextafter(y, math.Inf(1))} {
				pts = append(pts, geom.V2(x, yy))
			}
		}
	}
	for k := 0; k < 200; k++ {
		pts = append(pts, geom.V2(rng.Float64()*10-1, rng.Float64()*10-1))
	}
	return pts
}

func TestBucketedWindingMatchesPolygon(t *testing.T) {
	const baseSeed = 0x77e1d
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(parallel.SplitMix(baseSeed, trial)))
		l := randomProbeLayer(rng)
		for _, p := range probePoints(rng, l) {
			wantSigned := 0
			wantBody := map[string]int{}
			for i, c := range l.Contours {
				if !c.Closed {
					continue // open chains have no winding number
				}
				want := c.Poly.WindingNumber(p)
				if got := l.winding(i, p); got != want {
					t.Fatalf("trial %d contour %d at %v: bucketed winding %d, want %d", trial, i, p, got, want)
				}
				wantSigned += want
				wantBody[c.Body] += want
			}
			if got := l.SignedWinding(p); got != wantSigned {
				t.Fatalf("trial %d at %v: SignedWinding %d, want %d", trial, p, got, wantSigned)
			}
			for _, body := range []string{"a", "b"} {
				if got := l.BodyWinding(body, p); got != wantBody[body] {
					t.Fatalf("trial %d at %v: BodyWinding(%s) %d, want %d", trial, p, body, got, wantBody[body])
				}
			}
		}
	}
}

// The y-bucket arena stays linear in the edge count, even for loops whose
// edges each span most of the height.
func TestBucketArenaBounded(t *testing.T) {
	comb := geom.Polygon{}
	for i := 0; i < 500; i++ {
		x := float64(i)
		comb = append(comb, geom.V2(x, 0), geom.V2(x+0.5, 100))
	}
	l := &Layer{Contours: []Contour{{Poly: comb, Body: "a", Closed: true}}}
	l.buildProbeIndex()
	if n, max := len(l.probe.edges), 3*len(comb); n > max {
		t.Fatalf("arena holds %d entries for %d edges, want <= %d", n, len(comb), max)
	}
}

// loopNearest is the plain nearest-boundary scan: every edge in edge
// order, keeping the first strict minimum of the squared distance below
// limit, with the same per-edge arithmetic as bodyEdges.nearest.
func loopNearest(edges []probeEdge, p geom.Vec2, limit float64) (float64, geom.Vec2, geom.Vec2) {
	best := limit
	found := false
	var tangent, closest geom.Vec2
	for _, e := range edges {
		d := e.b.Sub(e.a)
		t := 0.0
		if ll := d.LenSq(); ll != 0 {
			t = geom.Clamp(p.Sub(e.a).Dot(d)/ll, 0, 1)
		}
		c := e.a.Lerp(e.b, t)
		if dsq := c.DistSq(p); dsq < best {
			best, found = dsq, true
			tangent = d.Normalized()
			closest = c
		}
	}
	if !found {
		return math.Inf(1), geom.Vec2{}, geom.Vec2{}
	}
	return closest.Dist(p), tangent, closest
}

// The interface ranges cover cells much larger than the edges, about
// their size, and so small the cell cap coarsens the grid.
var probeRanges = []float64{0, 1e-3, 0.1, 0.3, 0.75, 2.5}

func TestGridNearestMatchesLoopScan(t *testing.T) {
	const baseSeed = 0x4ea7
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(parallel.SplitMix(baseSeed, trial)))
		l := randomProbeLayer(rng)
		pts := probePoints(rng, l)
		// Exact ties: points equidistant from both edges at a shared
		// vertex, on the vertex's bisector.
		for _, c := range l.Contours {
			n := len(c.Poly)
			for j, v := range c.Poly {
				u := c.Poly[(j+n-1)%n].Sub(v).Normalized().Add(c.Poly[(j+1)%n].Sub(v).Normalized())
				pts = append(pts, v.Add(u.Scale(0.25)), v.Sub(u.Scale(0.25)))
			}
		}
		for _, r := range probeRanges {
			for _, body := range []string{"a", "b"} {
				be := buildBodyEdges(l, body, r)
				if len(be.edges) == 0 {
					continue
				}
				limit := math.Nextafter(r*r, math.Inf(1))
				for _, p := range pts {
					wd, wt, wc := loopNearest(be.edges, p, limit)
					gd, gt, gc := be.nearest(p, r, limit)
					if gd != wd || gt != wt || gc != wc {
						t.Fatalf("trial %d body %s range %g at %v: grid (%v %v %v), loop scan (%v %v %v)",
							trial, body, r, p, gd, gt, gc, wd, wt, wc)
					}
				}
			}
		}
	}
}

func TestGridCrossingsMatchPairwise(t *testing.T) {
	const baseSeed = 0xc055
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(parallel.SplitMix(baseSeed, trial)))
		l := randomProbeLayer(rng)
		want := countCrossingsNaive(l, "a", "b")
		for _, r := range probeRanges {
			ea, eb := buildBodyEdges(l, "a", r), buildBodyEdges(l, "b", r)
			if got := countCrossings(&ea, &eb); got != want {
				t.Fatalf("trial %d range %g: gridded crossings %d, pairwise %d", trial, r, got, want)
			}
		}
	}
}
