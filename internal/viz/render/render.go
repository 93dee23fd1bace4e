// Package render is a software rasterizer: it projects triangle meshes
// orthographically under the interactive camera (rotation + zoom) and
// shades them with a Lambert term into an RGBA framebuffer. It is the
// pipeline's final "rendering" module for geometry produced by isosurface
// extraction (the paper's clients either render locally on a GPU host or
// receive framebuffers rendered upstream — this module serves both roles).
package render

import (
	"math"
	"runtime"
	"sync"

	"ricsa/internal/viz"
)

// Options configures a render pass.
type Options struct {
	Camera  viz.Camera
	Width   int
	Height  int
	Light   viz.Vec3 // view-space light direction
	BaseR   uint8    // surface tint
	BaseG   uint8
	BaseB   uint8
	Workers int // parallel raster bands; <=0 means GOMAXPROCS
	// FixedBounds, when non-nil, fits the view to this world-space box
	// instead of the mesh's own bounding box. Monitoring applications set
	// it to the dataset domain so surface motion stays visible across
	// frames instead of being normalized away by auto-fitting.
	FixedBounds *[2]viz.Vec3
}

// DefaultOptions renders 512x512 with a headlight and a bone-like tint.
func DefaultOptions() Options {
	return Options{
		Camera: viz.Camera{Zoom: 1},
		Width:  512, Height: 512,
		Light: viz.Vec3{0.3, 0.4, 1},
		BaseR: 224, BaseG: 202, BaseB: 168,
	}
}

// Render rasterizes the mesh with a z-buffer into fresh buffers.
func Render(m *viz.Mesh, opt Options) *viz.Image {
	return RenderWith(nil, m, opt)
}

// RenderWith is Render with caller-owned scratch: the framebuffer, z-buffer,
// and projection buffer are reused from sc (grown on first use), so a frame
// loop rendering through the same scratch every frame performs no
// steady-state allocation. The returned image is sc.Img — valid until the
// next render into the same scratch. A nil sc renders into fresh buffers.
//
//ricsa:noalloc
func RenderWith(sc *viz.FrameScratch, m *viz.Mesh, opt Options) *viz.Image {
	return renderSource(sc, vertexSource{mesh: m}, opt)
}

// RenderBlocksWith is RenderWith over a BlockMeshCache's per-block meshes
// taken in block order — the mesh marchingcubes.ExtractROIInto would
// assemble — without building that copy. The image is byte-identical to
// assembling and calling RenderWith; the frame path skips holding the
// surface a third time (block arenas, assembled mesh, projections).
//
//ricsa:noalloc
func RenderBlocksWith(sc *viz.FrameScratch, c *viz.BlockMeshCache, opt Options) *viz.Image {
	return renderSource(sc, vertexSource{cache: c}, opt)
}

// vertexSource is the geometry a render pass projects: one mesh, or the
// per-block meshes of a cache concatenated in block order.
type vertexSource struct {
	mesh  *viz.Mesh
	cache *viz.BlockMeshCache
}

func (v vertexSource) parts() int {
	if v.cache != nil {
		return v.cache.Len()
	}
	return 1
}

func (v vertexSource) part(i int) []viz.Vec3 {
	if v.cache != nil {
		return v.cache.Mesh(i).Vertices
	}
	return v.mesh.Vertices
}

// bounds is Mesh.Bounds over the concatenated parts.
func (v vertexSource) bounds() (lo, hi viz.Vec3, ok bool) {
	for i := 0; i < v.parts(); i++ {
		for _, p := range v.part(i) {
			if !ok {
				lo, hi, ok = p, p, true
			}
			for k := 0; k < 3; k++ {
				if p[k] < lo[k] {
					lo[k] = p[k]
				}
				if p[k] > hi[k] {
					hi[k] = p[k]
				}
			}
		}
	}
	return lo, hi, ok
}

// renderSource is the render pass behind RenderWith and RenderBlocksWith.
//
//ricsa:noalloc
func renderSource(sc *viz.FrameScratch, src vertexSource, opt Options) *viz.Image {
	if sc == nil {
		sc = &viz.FrameScratch{}
	}
	if opt.Width <= 0 {
		opt.Width = 512
	}
	if opt.Height <= 0 {
		opt.Height = 512
	}
	if opt.Camera.Zoom <= 0 {
		opt.Camera.Zoom = 1
	}
	img := sc.ReuseImage(opt.Width, opt.Height)
	nv := 0
	for i := 0; i < src.parts(); i++ {
		nv += len(src.part(i))
	}
	if nv == 0 {
		return img
	}
	var lo, hi viz.Vec3
	if opt.FixedBounds != nil {
		lo, hi = opt.FixedBounds[0], opt.FixedBounds[1]
	} else {
		lo, hi, _ = src.bounds()
	}

	// Fit the model: center on the bounding box, scale so the largest
	// dimension fills the viewport at zoom 1.
	center := lo.Add(hi).Scale(0.5)
	ext := hi.Sub(lo)
	extent := max3(ext[0], ext[1], ext[2])
	if extent == 0 {
		extent = 1
	}
	scale := float32(opt.Camera.Zoom) * float32(minInt(opt.Width, opt.Height)) / extent

	light := opt.Light.Normalize()
	zbuf := sc.ReuseZBuf(opt.Width * opt.Height)
	for i := range zbuf {
		zbuf[i] = float32(math.Inf(-1))
	}

	// Project all vertices once.
	proj := sc.ReuseProj(nv)
	halfW, halfH := float32(opt.Width)/2, float32(opt.Height)/2
	j := 0
	for i := 0; i < src.parts(); i++ {
		for _, v := range src.part(i) {
			p := opt.Camera.Rotate(v.Sub(center)).Scale(scale)
			proj[j] = viz.Vec3{p[0] + halfW, halfH - p[1], p[2]}
			j++
		}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nTri := nv / 3
	if workers > 1 && nTri >= 1024 {
		renderParallel(nTri, proj, img, zbuf, light, opt, workers)
		return img
	}
	for t := 0; t < nTri; t++ {
		rasterTriangle(img, zbuf, proj[3*t], proj[3*t+1], proj[3*t+2], light, opt, 0, opt.Height)
	}
	return img
}

// renderParallel splits the framebuffer into horizontal bands; every worker
// rasterizes all triangles but only writes pixels inside its band, so no
// locking is needed and output matches the serial path exactly.
func renderParallel(nTri int, proj []viz.Vec3, img *viz.Image, zbuf []float32, light viz.Vec3, opt Options, workers int) {
	var wg sync.WaitGroup
	band := (opt.Height + workers - 1) / workers
	for w := 0; w < workers; w++ {
		y0 := w * band
		y1 := minInt(y0+band, opt.Height)
		if y0 >= y1 {
			break
		}
		wg.Add(1)
		go func(y0, y1 int) {
			defer wg.Done()
			for t := 0; t < nTri; t++ {
				rasterTriangle(img, zbuf, proj[3*t], proj[3*t+1], proj[3*t+2], light, opt, y0, y1)
			}
		}(y0, y1)
	}
	wg.Wait()
}

// rasterTriangle fills one screen-space triangle into rows [y0, y1) with
// z-buffering and flat Lambert shading.
func rasterTriangle(img *viz.Image, zbuf []float32, a, b, c viz.Vec3, light viz.Vec3, opt Options, y0, y1 int) {
	// Face normal in view space for shading (screen x/y plus depth z).
	n := b.Sub(a).Cross(c.Sub(a))
	// Screen y is flipped; flip the normal's y back for lighting.
	n[1] = -n[1]
	nn := n.Normalize()
	lambert := nn.Dot(light)
	if lambert < 0 {
		lambert = -lambert // double-sided shading
	}
	shade := 0.2 + 0.8*float64(lambert)

	minX := int(math.Floor(float64(min3(a[0], b[0], c[0]))))
	maxX := int(math.Ceil(float64(max3(a[0], b[0], c[0]))))
	minY := int(math.Floor(float64(min3(a[1], b[1], c[1]))))
	maxY := int(math.Ceil(float64(max3(a[1], b[1], c[1]))))
	if minX < 0 {
		minX = 0
	}
	if maxX >= img.W {
		maxX = img.W - 1
	}
	if minY < y0 {
		minY = y0
	}
	if maxY >= y1 {
		maxY = y1 - 1
	}
	if minX > maxX || minY > maxY {
		return
	}

	d00 := float64(b[0]-a[0])*float64(c[1]-a[1]) - float64(c[0]-a[0])*float64(b[1]-a[1])
	if d00 == 0 {
		return // degenerate in screen space
	}
	r := uint8(float64(opt.BaseR) * shade)
	g := uint8(float64(opt.BaseG) * shade)
	bl := uint8(float64(opt.BaseB) * shade)

	pix := img.Pix
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			w0 := ((float64(b[0])-px)*(float64(c[1])-py) - (float64(c[0])-px)*(float64(b[1])-py)) / d00
			w1 := ((float64(c[0])-px)*(float64(a[1])-py) - (float64(a[0])-px)*(float64(c[1])-py)) / d00
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := float32(w0)*a[2] + float32(w1)*b[2] + float32(w2)*c[2]
			i := y*img.W + x
			if z <= zbuf[i] {
				continue
			}
			zbuf[i] = z
			// The bounding box is clamped to the image, so write the pixel
			// directly instead of re-bounds-checking through Set.
			o := 4 * i
			pix[o], pix[o+1], pix[o+2], pix[o+3] = r, g, bl, 0xff
		}
	}
}

func min3(a, b, c float32) float32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c float32) float32 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
