// Package voxel provides dense 3D occupancy grids used by the virtual
// printer for material deposition and by the testing stage for
// CT-scan-style non-destructive inspection (Table 1, "Testing" row).
package voxel

import (
	"fmt"

	"obfuscade/internal/geom"
)

// Material labels the content of one voxel.
type Material uint8

const (
	// Empty voxels contain nothing.
	Empty Material = iota
	// Model voxels contain build material (ABS / VeroClear).
	Model
	// Support voxels contain dissolvable support material.
	Support
)

// String implements fmt.Stringer.
func (m Material) String() string {
	switch m {
	case Empty:
		return "empty"
	case Model:
		return "model"
	case Support:
		return "support"
	default:
		return fmt.Sprintf("Material(%d)", int(m))
	}
}

// Grid is a dense voxel grid. Cell (0,0,0)'s minimum corner sits at
// Origin; the in-plane cell size is Cell and the vertical size is CellZ
// (layer height), matching the anisotropic resolution of layered
// manufacturing.
type Grid struct {
	Origin     geom.Vec3
	Cell       float64
	CellZ      float64
	NX, NY, NZ int
	cells      []Material
}

// NewGrid allocates a grid covering the given bounds.
func NewGrid(bounds geom.AABB, cell, cellZ float64) (*Grid, error) {
	if cell <= 0 || cellZ <= 0 {
		return nil, fmt.Errorf("voxel: cell sizes must be positive (%g, %g)", cell, cellZ)
	}
	size := bounds.Size()
	nx := int(size.X/cell) + 1
	ny := int(size.Y/cell) + 1
	nz := int(size.Z/cellZ) + 1
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("voxel: empty bounds")
	}
	total := nx * ny * nz
	if total > 200_000_000 {
		return nil, fmt.Errorf("voxel: %d voxels exceed sanity limit", total)
	}
	return &Grid{
		Origin: bounds.Min,
		Cell:   cell,
		CellZ:  cellZ,
		NX:     nx, NY: ny, NZ: nz,
		cells: getCells(total),
	}, nil
}

func (g *Grid) idx(x, y, z int) int { return (z*g.NY+y)*g.NX + x }

// In reports whether the voxel coordinates are inside the grid.
func (g *Grid) In(x, y, z int) bool {
	return x >= 0 && y >= 0 && z >= 0 && x < g.NX && y < g.NY && z < g.NZ
}

// At returns the material at voxel (x, y, z); Empty outside the grid.
func (g *Grid) At(x, y, z int) Material {
	if !g.In(x, y, z) {
		return Empty
	}
	return g.cells[g.idx(x, y, z)]
}

// Set stores the material at (x, y, z); out-of-grid writes are ignored.
func (g *Grid) Set(x, y, z int, m Material) {
	if g.In(x, y, z) {
		g.cells[g.idx(x, y, z)] = m
	}
}

// FillRow stores m in voxels [x0, x1) of row y in slab z — the run
// counterpart of Set. The run is clipped to the grid; rows and slabs
// outside it are ignored.
func (g *Grid) FillRow(x0, x1, y, z int, m Material) {
	if y < 0 || z < 0 || y >= g.NY || z >= g.NZ {
		return
	}
	x0, x1 = max(x0, 0), min(x1, g.NX)
	if x0 >= x1 {
		return
	}
	row := g.cells[g.idx(x0, y, z):g.idx(x1, y, z)]
	for i := range row {
		row[i] = m
	}
}

// Count returns the number of voxels with the given material.
func (g *Grid) Count(m Material) int {
	n := 0
	for _, c := range g.cells {
		if c == m {
			n++
		}
	}
	return n
}

// VoxelVolume returns the volume of a single voxel in mm^3.
func (g *Grid) VoxelVolume() float64 { return g.Cell * g.Cell * g.CellZ }

// Volume returns the total volume of voxels with the given material.
func (g *Grid) Volume(m Material) float64 {
	return float64(g.Count(m)) * g.VoxelVolume()
}

// Center returns the world position of a voxel centre.
func (g *Grid) Center(x, y, z int) geom.Vec3 {
	return geom.V3(
		g.Origin.X+(float64(x)+0.5)*g.Cell,
		g.Origin.Y+(float64(y)+0.5)*g.Cell,
		g.Origin.Z+(float64(z)+0.5)*g.CellZ,
	)
}

// Locate returns the voxel containing world point p (may be out of grid).
func (g *Grid) Locate(p geom.Vec3) (x, y, z int) {
	return int((p.X - g.Origin.X) / g.Cell),
		int((p.Y - g.Origin.Y) / g.Cell),
		int((p.Z - g.Origin.Z) / g.CellZ)
}

// Replace rewrites every voxel of material from to material to and
// returns the number changed (e.g. washing out dissolvable support).
func (g *Grid) Replace(from, to Material) int {
	n := 0
	for i, c := range g.cells {
		if c == from {
			g.cells[i] = to
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the grid. The copy draws from the same
// freelist as NewGrid and can be Released independently.
func (g *Grid) Clone() *Grid {
	ng := *g
	ng.cells = getCells(len(g.cells))
	copy(ng.cells, g.cells)
	return &ng
}

// Component is one connected region of voxels of a single material
// (6-connectivity).
type Component struct {
	Material Material
	// Voxels is the voxel count.
	Voxels int
	// TouchesBoundary reports whether the component reaches the grid
	// boundary (an external region rather than an internal cavity).
	TouchesBoundary bool
	// Bounds is the voxel-space bounding box {min, max} inclusive.
	MinV, MaxV [3]int
	// Seed is one voxel of the component.
	Seed [3]int
}

// BoundsWorld returns the world-space bounding box of the component.
func (c *Component) BoundsWorld(g *Grid) geom.AABB {
	return geom.AABB{
		Min: geom.V3(
			g.Origin.X+float64(c.MinV[0])*g.Cell,
			g.Origin.Y+float64(c.MinV[1])*g.Cell,
			g.Origin.Z+float64(c.MinV[2])*g.CellZ,
		),
		Max: geom.V3(
			g.Origin.X+float64(c.MaxV[0]+1)*g.Cell,
			g.Origin.Y+float64(c.MaxV[1]+1)*g.Cell,
			g.Origin.Z+float64(c.MaxV[2]+1)*g.CellZ,
		),
	}
}

// Components labels the 6-connected components of the given material and
// returns them sorted by descending size. It is the reference the
// InternalCavities fast path is property-tested against.
func (g *Grid) Components(m Material) []Component {
	visited := make([]bool, len(g.cells))
	var comps []Component
	var stack [][3]int
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				i := g.idx(x, y, z)
				if visited[i] || g.cells[i] != m {
					continue
				}
				comp := Component{
					Material: m,
					MinV:     [3]int{x, y, z},
					MaxV:     [3]int{x, y, z},
					Seed:     [3]int{x, y, z},
				}
				stack = append(stack[:0], [3]int{x, y, z})
				visited[i] = true
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp.add(v)
					if v[0] == 0 || v[1] == 0 || v[2] == 0 ||
						v[0] == g.NX-1 || v[1] == g.NY-1 || v[2] == g.NZ-1 {
						comp.TouchesBoundary = true
					}
					for _, d := range [6][3]int{
						{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
					} {
						nx, ny, nz := v[0]+d[0], v[1]+d[1], v[2]+d[2]
						if !g.In(nx, ny, nz) {
							continue
						}
						ni := g.idx(nx, ny, nz)
						if visited[ni] || g.cells[ni] != m {
							continue
						}
						visited[ni] = true
						stack = append(stack, [3]int{nx, ny, nz})
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	sortBySize(comps)
	return comps
}

// add counts voxel v into the component and widens its bounds.
func (c *Component) add(v [3]int) {
	c.Voxels++
	for d := 0; d < 3; d++ {
		c.MinV[d] = min(c.MinV[d], v[d])
		c.MaxV[d] = max(c.MaxV[d], v[d])
	}
}

// sortBySize orders components by descending size, keeping discovery
// (scan) order among equals (insertion sort; component counts are tiny).
func sortBySize(comps []Component) {
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && comps[j].Voxels > comps[j-1].Voxels; j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
}

// InternalCavities returns empty components fully enclosed by material —
// what an X-ray/CT inspection of the printed artifact reveals. This is
// the genuine-part authentication check of ObfusCADe: the washed-out
// sphere leaves a detectable internal cavity.
//
// It never labels the exterior. One fill marks every empty voxel
// reachable from the grid boundary; only the empty voxels it leaves are
// then labelled, in scan order. The fill marks every boundary voxel
// before it expands, so it only ever steps from interior voxels, whose six
// neighbours are all in the grid: each step is a flat offset with no
// bounds check. The result equals filtering Components(Empty) for
// components that do not touch the boundary — same seeds, bounds, counts
// and order.
func (g *Grid) InternalCavities() []Component {
	nx, ny, nz := g.NX, g.NY, g.NZ
	cells := g.cells
	seen := make([]bool, len(cells))
	steps := [6]int32{1, -1, int32(nx), -int32(nx), int32(nx * ny), -int32(nx * ny)}
	var stack []int32
	// Mark the empty boundary voxels and stack their empty interior
	// neighbours: whole rows on the four outer faces of the y-z frame,
	// the two end voxels of every other row.
	interior := func(x, y, z int) bool {
		return x > 0 && y > 0 && z > 0 && x < nx-1 && y < ny-1 && z < nz-1
	}
	boundary := func(x, y, z int) {
		i := g.idx(x, y, z)
		if cells[i] != Empty {
			return
		}
		seen[i] = true
		for _, d := range [6][3]int{
			{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
		} {
			if !interior(x+d[0], y+d[1], z+d[2]) {
				continue
			}
			if ni := g.idx(x+d[0], y+d[1], z+d[2]); cells[ni] == Empty && !seen[ni] {
				seen[ni] = true
				stack = append(stack, int32(ni))
			}
		}
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			if y == 0 || z == 0 || y == ny-1 || z == nz-1 {
				for x := 0; x < nx; x++ {
					boundary(x, y, z)
				}
			} else {
				boundary(0, y, z)
				boundary(nx-1, y, z)
			}
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range steps {
			if ni := i + s; cells[ni] == Empty && !seen[ni] {
				seen[ni] = true
				stack = append(stack, ni)
			}
		}
	}
	// Every empty voxel left unseen is interior and enclosed.
	var out []Component
	for i := range cells {
		if cells[i] != Empty || seen[i] {
			continue
		}
		v := g.coords(i)
		comp := Component{Material: Empty, MinV: v, MaxV: v, Seed: v}
		seen[i] = true
		stack = append(stack, int32(i))
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp.add(g.coords(int(j)))
			for _, s := range steps {
				if nj := j + s; cells[nj] == Empty && !seen[nj] {
					seen[nj] = true
					stack = append(stack, nj)
				}
			}
		}
		out = append(out, comp)
	}
	sortBySize(out)
	return out
}

// coords inverts idx.
func (g *Grid) coords(i int) [3]int {
	return [3]int{i % g.NX, i / g.NX % g.NY, i / (g.NX * g.NY)}
}

// Porosity returns the fraction of void volume inside the material
// envelope: internal empty voxels / (model + internal empty).
func (g *Grid) Porosity() float64 {
	model := g.Count(Model)
	if model == 0 {
		return 0
	}
	internal := 0
	for _, c := range g.InternalCavities() {
		internal += c.Voxels
	}
	return float64(internal) / float64(model+internal)
}

// CenterOfMass returns the centroid of the model-material voxels — the
// balance point a simple scale-and-pivot inspection measures. A hidden
// off-centre cavity shifts it detectably even without a CT scanner.
func (g *Grid) CenterOfMass() (geom.Vec3, bool) {
	var sum geom.Vec3
	n := 0
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				if g.At(x, y, z) == Model {
					sum = sum.Add(g.Center(x, y, z))
					n++
				}
			}
		}
	}
	if n == 0 {
		return geom.Vec3{}, false
	}
	return sum.Scale(1 / float64(n)), true
}

// CrossSectionArea returns the model-material area of the voxel column
// plane x = ix (area in mm^2). Useful for weakest-section analysis.
func (g *Grid) CrossSectionArea(ix int) float64 {
	if ix < 0 || ix >= g.NX {
		return 0
	}
	n := 0
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			if g.At(ix, y, z) == Model {
				n++
			}
		}
	}
	return float64(n) * g.Cell * g.CellZ
}
