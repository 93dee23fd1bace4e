package main

import (
	"bytes"
	"fmt"
	"image"
	"image/draw"
	"image/png"

	"ricsa/internal/cost"
	"ricsa/internal/viz"
)

// tierSide is the frame edge each PNG tier must decode to.
var tierSide = [cost.NumTiers]int{512, 256, 128, 512}

// frameKey names one published frame of one tier.
type frameKey struct {
	Session string
	Tier    cost.Tier
	Seq     uint64
}

// checker verifies delivered frames. Each distinct published frame is
// decoded once; every other delivery of it must carry the same bytes.
type checker struct {
	log *opLog
	// canon is the first delivery of each frame; decoded marks those whose
	// content passed.
	canon   map[frameKey][]byte
	decoded map[frameKey]bool
	checked int
}

func newChecker(log *opLog) *checker {
	return &checker{log: log, canon: map[frameKey][]byte{}, decoded: map[frameKey]bool{}}
}

func (c *checker) fail(format string, args ...any) { c.log.check(false, format, args...) }

// decodePNG decodes b and checks it is side x side, returning RGBA pixels.
func decodePNG(b []byte, side int) ([]byte, error) {
	img, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if r := img.Bounds(); r.Dx() != side || r.Dy() != side {
		return nil, fmt.Errorf("decoded %dx%d, want %dx%d", r.Dx(), r.Dy(), side, side)
	}
	return rgbaPix(img), nil
}

// rgbaPix returns tightly packed 8-bit RGBA pixels of img.
func rgbaPix(img image.Image) []byte {
	r := img.Bounds()
	if m, ok := img.(*image.RGBA); ok && m.Stride == 4*r.Dx() && r.Min == (image.Point{}) {
		return m.Pix
	}
	m := image.NewRGBA(image.Rect(0, 0, r.Dx(), r.Dy()))
	draw.Draw(m, m.Bounds(), img, r.Min, draw.Src)
	return m.Pix
}

// content checks one distinct frame's payload for its tier.
func (c *checker) content(k frameKey, b []byte) {
	if c.decoded[k] {
		return
	}
	c.decoded[k] = true
	c.checked++
	if k.Tier == cost.TierDelta {
		f, err := viz.ParseDeltaFrame(b)
		if err != nil {
			c.fail("%s seq %d delta: %v", k.Session, k.Seq, err)
			return
		}
		if f.Kind == viz.DeltaKey {
			if _, err := decodePNG(f.PNG, 512); err != nil {
				c.fail("%s seq %d delta keyframe: %v", k.Session, k.Seq, err)
			}
		}
		return
	}
	if _, err := decodePNG(b, tierSide[k.Tier]); err != nil {
		c.fail("%s seq %d %s frame: %v", k.Session, k.Seq, k.Tier, err)
	}
}

// viewer checks one viewer's deliveries: sequence numbers strictly rise,
// HTTP replies carry the negotiated tier, in-process deliveries of a frame
// share one payload, and every distinct payload decodes for its tier.
func (c *checker) viewer(v *viewer) {
	var last uint64
	for i, r := range v.receipts {
		if i > 0 && r.Seq <= last {
			c.fail("%s %s viewer: seq %d after %d", v.session, r.Tier, r.Seq, last)
		}
		last = r.Seq
		if v.http && r.HdrTier != r.Tier.String() {
			c.fail("%s HTTP viewer: X-Frame-Tier %q, negotiated %q", v.session, r.HdrTier, r.Tier)
		}
		k := frameKey{v.session, r.Tier, r.Seq}
		canon, seen := c.canon[k]
		switch {
		case !seen:
			c.canon[k] = r.Data
			c.content(k, r.Data)
		case !bytes.Equal(canon, r.Data):
			c.fail("%s seq %d %s: deliveries differ", v.session, r.Seq, r.Tier)
		}
	}
}

// deltaViewer rebuilds an HTTP delta viewer's stream and compares each
// reconstruction with the full-tier frame of the same seq, where one was
// delivered. Run it after viewer() has seen every full-tier delivery.
func (c *checker) deltaViewer(v *viewer) (compared int) {
	var dec viz.DeltaDecoder
	for _, r := range v.receipts {
		f, err := viz.ParseDeltaFrame(r.Data)
		if err != nil {
			continue // reported by viewer()
		}
		img, err := dec.Apply(f)
		if err != nil {
			c.fail("%s delta seq %d: %v", v.session, r.Seq, err)
			continue
		}
		b, ok := c.canon[frameKey{v.session, cost.TierFull, r.Seq}]
		if !ok {
			continue
		}
		full, err := decodePNG(b, 512)
		if err != nil {
			continue // reported by content()
		}
		compared++
		if !bytes.Equal(full, img.Pix) {
			c.fail("%s delta seq %d: reconstruction differs from the full frame", v.session, r.Seq)
		}
	}
	return compared
}

// png checks a frame fetched by the control connection.
func (c *checker) png(what string, b []byte) {
	c.checked++
	if _, err := decodePNG(b, 512); err != nil {
		c.fail("%s: %v", what, err)
	}
}
