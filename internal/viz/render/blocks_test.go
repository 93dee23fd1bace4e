package render

import (
	"bytes"
	"math"
	"testing"

	"ricsa/internal/grid"
	"ricsa/internal/viz"
	"ricsa/internal/viz/marchingcubes"
)

// TestRenderBlocksWithMatchesAssembled: drawing a BlockMeshCache's blocks
// directly must give the bytes that assembling them (ExtractROIInto) and
// calling RenderWith gives — auto-fit and fixed bounds, serial and banded
// rasterization, and an empty surface.
func TestRenderBlocksWithMatchesAssembled(t *testing.T) {
	const n = 24
	f := grid.NewScalarField(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				dx, dy, dz := float64(x)-11, float64(y)-12, float64(z)-13
				f.Data[(z*n+y)*n+x] = float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
			}
		}
	}
	box := [2]viz.Vec3{{0, 0, 0}, {n - 1, n - 1, n - 1}}
	for _, iso := range []float32{10, 100} {
		var c viz.BlockMeshCache
		var m viz.Mesh
		marchingcubes.ExtractROIInto(&m, &c, f, 8, iso, nil)
		if iso == 10 {
			// The sphere crosses the first and last blocks, and is big
			// enough for the banded rasterizer.
			if c.Mesh(0).TriangleCount() == 0 || c.Mesh(c.Len()-1).TriangleCount() == 0 {
				t.Fatal("surface misses the first or last block")
			}
			if m.TriangleCount() < 1024 {
				t.Fatalf("surface has %d triangles; the banded path needs >= 1024", m.TriangleCount())
			}
		}
		for _, workers := range []int{1, 2} {
			for _, fixed := range []bool{false, true} {
				opt := DefaultOptions()
				opt.Width, opt.Height = 160, 128
				opt.Workers = workers
				opt.Camera = viz.Camera{Yaw: 0.6, Pitch: -0.3, Zoom: 1.3}
				if fixed {
					opt.FixedBounds = &box
				}
				var scA, scB viz.FrameScratch
				want := RenderWith(&scA, &m, opt)
				got := RenderBlocksWith(&scB, &c, opt)
				if !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("iso %v workers %d fixed %v: block render differs from the assembled mesh's", iso, workers, fixed)
				}
			}
		}
	}
}
