package viz

import (
	"math/rand"
	"testing"

	"ricsa/internal/grid"
)

func cacheTestField(rng *rand.Rand, nx, ny, nz int) *grid.ScalarField {
	f := grid.NewScalarField(nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = rng.Float32()
	}
	return f
}

// TestBlockMeshCachePlanCold: a cold Plan schedules exactly the active
// blocks and mirrors the Decompose geometry.
func TestBlockMeshCachePlanCold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := cacheTestField(rng, 17, 9, 7)
	const edge, iso = 4, float32(0.5)
	blocks := grid.Decompose(f, edge)

	var c BlockMeshCache
	dirty := c.Plan(f, edge, iso)

	if c.Len() != len(blocks) {
		t.Fatalf("cache has %d blocks, Decompose %d", c.Len(), len(blocks))
	}
	wantDirty := 0
	for i, b := range blocks {
		if c.Block(i) != b {
			t.Fatalf("block %d: cache %+v, Decompose %+v", i, c.Block(i), b)
		}
		if b.ContainsIso(iso) {
			wantDirty++
		}
	}
	if len(dirty) != wantDirty {
		t.Fatalf("cold Plan scheduled %d blocks, want %d active", len(dirty), wantDirty)
	}
	reused, extracted := c.TakeStats()
	if extracted != wantDirty || reused != c.Len()-wantDirty {
		t.Fatalf("stats %d/%d, want %d/%d", reused, extracted, c.Len()-wantDirty, wantDirty)
	}
	if r, e := c.TakeStats(); r != 0 || e != 0 {
		t.Fatal("TakeStats did not clear")
	}
}

// TestBlockMeshCacheSteadyAndDirty: an unchanged field plans zero work; a
// single-sample change re-plans exactly the blocks whose support contains it
// (when they cross the isovalue).
func TestBlockMeshCacheSteadyAndDirty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := cacheTestField(rng, 13, 13, 5)
	const edge, iso = 4, float32(0.5)

	var c BlockMeshCache
	c.Plan(f, edge, iso)
	if dirty := c.Plan(f, edge, iso); len(dirty) != 0 {
		t.Fatalf("steady state planned %d blocks, want 0", len(dirty))
	}

	// Flip one strictly interior sample of block 0's support across the
	// isovalue: exactly that block must re-plan.
	f.Data[(1*f.NY+1)*f.NX+1] = 2.0
	dirty := c.Plan(f, edge, iso)
	if len(dirty) != 1 || dirty[0] != 0 {
		t.Fatalf("planned %v, want [0]", dirty)
	}
}

// TestBlockMeshCacheCulledTransition: a block whose surface leaves it gets
// its cached mesh emptied without being scheduled, and churn in a block the
// isovalue never enters plans nothing.
func TestBlockMeshCacheCulledTransition(t *testing.T) {
	f := grid.NewScalarField(9, 5, 5)
	const edge = 4
	const iso = float32(0.5)
	// Left half crosses the isovalue, right half sits far above it.
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			for x := 0; x < f.NX; x++ {
				v := float32(0.0)
				if x >= 4 {
					v = 10.0
				} else if (x+y+z)%2 == 0 {
					v = 1.0
				}
				f.Data[(z*f.NY+y)*f.NX+x] = v
			}
		}
	}
	var c BlockMeshCache
	dirty := c.Plan(f, edge, iso)
	if len(dirty) == 0 {
		t.Fatal("no active blocks in the crossing half")
	}
	active := dirty[0]
	// Pretend the extractor filled the active block's mesh.
	c.Mesh(active).Vertices = append(c.Mesh(active).Vertices, Vec3{1, 2, 3})

	// Churn inside the far-above half: stamps change, but the blocks stay
	// inactive on both frames, so nothing plans.
	for z := 0; z < f.NZ; z++ {
		f.Data[(z*f.NY)*f.NX+6] += 1.0
	}
	if d := c.Plan(f, edge, iso); len(d) != 0 {
		t.Fatalf("inactive-both-frames churn planned %v, want none", d)
	}

	// Push the active block's support far above the isovalue: the surface
	// left it, so its mesh must be emptied without re-extraction.
	b := c.Block(active)
	for z := b.Z0; z <= b.Z0+b.NZ; z++ {
		for y := b.Y0; y <= b.Y0+b.NY; y++ {
			for x := b.X0; x <= b.X0+b.NX; x++ {
				f.Data[(z*f.NY+y)*f.NX+x] = 10.0
			}
		}
	}
	if d := c.Plan(f, edge, iso); len(d) != 0 {
		t.Fatalf("active->inactive transition planned %v, want none", d)
	}
	if got := len(c.Mesh(active).Vertices); got != 0 {
		t.Fatalf("departed block kept %d stale vertices", got)
	}
}

// TestBlockMeshCacheInvalidation: isovalue, edge, or geometry changes and
// explicit Invalidate all force a full re-plan.
func TestBlockMeshCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := cacheTestField(rng, 9, 9, 9)
	var c BlockMeshCache

	countActive := func(iso float32) int {
		n := 0
		for i := 0; i < c.Len(); i++ {
			if c.Block(i).ContainsIso(iso) {
				n++
			}
		}
		return n
	}

	c.Plan(f, 4, 0.5)
	if d := c.Plan(f, 4, 0.25); len(d) != countActive(0.25) {
		t.Fatalf("isovalue change planned %d, want full %d", len(d), countActive(0.25))
	}
	if d := c.Plan(f, 2, 0.25); len(d) != countActive(0.25) {
		t.Fatalf("edge change planned %d, want full %d", len(d), countActive(0.25))
	}
	g := cacheTestField(rng, 5, 5, 5)
	if d := c.Plan(g, 2, 0.25); len(d) != countActive(0.25) {
		t.Fatalf("geometry change planned %d, want full %d", len(d), countActive(0.25))
	}
	c.Invalidate()
	if d := c.Plan(g, 2, 0.25); len(d) != countActive(0.25) {
		t.Fatalf("Invalidate planned %d, want full %d", len(d), countActive(0.25))
	}
}

// TestBlockMeshCacheThreshold: with a positive threshold, same-side min/max
// drift within tolerance keeps the stale mesh; drift beyond it re-plans.
func TestBlockMeshCacheThreshold(t *testing.T) {
	f := grid.NewScalarField(5, 5, 5)
	for i := range f.Data {
		f.Data[i] = float32(i%3) - 1.0 // crosses iso 0.5 everywhere
	}
	var c BlockMeshCache
	c.Threshold = 0.2
	c.Plan(f, 4, 0.5)

	// Small same-side drift: every sample moves by 0.05 without crossing.
	for i := range f.Data {
		f.Data[i] += 0.05
	}
	if d := c.Plan(f, 4, 0.5); len(d) != 0 {
		t.Fatalf("drift within threshold planned %v, want none", d)
	}

	// Large drift on the max: beyond tolerance, must re-plan.
	f.Data[0] = 5.0
	if d := c.Plan(f, 4, 0.5); len(d) != 1 {
		t.Fatalf("drift beyond threshold planned %v, want the one block", d)
	}
}

// TestBlockMeshCacheRecyclesArenas: as a surface sweeps through the blocks,
// the arenas of blocks it leaves are lent to the blocks it enters, so the
// retained capacity tracks the surface's current extent rather than every
// block it ever crossed (8 blocks here, one holding the surface at a time).
func TestBlockMeshCacheRecyclesArenas(t *testing.T) {
	const nx, edge, perBlock = 64, 8, 4096
	f := grid.NewScalarField(nx, 8, 8)
	var c BlockMeshCache
	for front := 1; front < nx; front++ {
		for z := 0; z < f.NZ; z++ {
			for y := 0; y < f.NY; y++ {
				for x := 0; x < nx; x++ {
					v := float32(1)
					if x < front {
						v = 0
					}
					f.Data[(z*f.NY+y)*nx+x] = v
				}
			}
		}
		for _, i := range c.Plan(f, edge, 0.5) {
			// Stand-in extractor: only the block owning the crossing cell
			// (front-1) emits triangles.
			m := c.Mesh(i)
			m.Reset()
			if b := c.Block(i); b.X0 <= front-1 && front-1 < b.X0+b.NX {
				for len(m.Vertices) < perBlock {
					m.Vertices = append(m.Vertices, Vec3{})
				}
			}
		}
		c.ReclaimEmpty()
	}
	if c.Len() < 8 {
		t.Fatalf("decomposition has %d blocks, want >= 8", c.Len())
	}
	retained := 0
	for i := range c.meshes {
		retained += cap(c.meshes[i].Vertices)
	}
	for _, m := range c.spare {
		retained += cap(m.Vertices)
	}
	if retained > 3*perBlock {
		t.Fatalf("retained %d vertices of arena capacity over %d blocks, want <= %d (one surface-sized arena, plus slack)",
			retained, c.Len(), 3*perBlock)
	}
}
