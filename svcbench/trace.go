package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/simengine"
	"ricsa/internal/steering"
	"ricsa/internal/viz"
	"ricsa/internal/webui"
)

// Span names. The text before the first dot is the layer the benchmark
// called into; "bench" spans are the benchmark's own grouping.
const (
	spanWait       = "steering.Viewer.Wait"
	spanGetFrame   = "webui.GET frame"
	spanSteerPost  = "webui.POST steer"
	spanStatus     = "webui.GET status"
	spanCreatePost = "webui.POST sessions"
	spanGetFirst   = "webui.GET first frame"
	spanDelete     = "webui.DELETE session"
	spanIdlePoll   = "webui.GET idle frame"
	spanRemeasure  = "cm.Remeasure"

	spanReplayFrame = "bench.replay frame"
	spanStep        = "simengine.Step"
	spanSnapshot    = "simengine.Snapshot"
	spanROI         = "viz.RenderDatasetROI"
	spanRaycast     = "viz.RenderDataset raycast"
	spanStreamline  = "viz.RenderDataset streamline"
	spanEncode      = "viz.EncodePNG"
	spanDownscale   = "viz.TierEncoder.EncodeDownscaled"
	spanDelta       = "viz.TierEncoder.EncodeDelta"
	spanOptimize    = "cm.Optimize"
	spanCreate      = "steering.CreateTuned"
	spanFirstWait   = "steering.Viewer.Wait first"
	spanDestroy     = "steering.Destroy"
	spanBenchCycle  = "bench.lifecycle"
)

// span is one timed call into a layer. Key ties spans of one steer, frame
// or cycle together (a steer's due time, a frame's seq).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    uint64 `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while on; a nil tracer records nothing.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// span records a finished span and returns its id (0 when off).
func (t *tracer) span(name string, parent, key uint64, start, end int64) uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// into records a finished root span into a caller-owned buffer, for
// goroutines that must not contend on the tracer's lock.
func (t *tracer) into(buf *[]span, name string, key uint64, start, end int64) {
	if t == nil || !t.on.Load() {
		return
	}
	*buf = append(*buf, span{ID: t.nextID.Add(1), Name: name, Key: key, Start: start, End: end})
}

// layerTimes sums each layer's span time and self time: a span's duration
// minus the part of it its children cover.
type layerTime struct {
	Spans           int
	TotalMS, SelfMS float64
}

func layerTimes(spans []span) map[string]*layerTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		lt := out[layer]
		if lt == nil {
			lt = &layerTime{}
			out[layer] = lt
		}
		dur := s.End - s.Start
		lt.Spans++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	return out
}

// covered returns how much of parent's interval the children's union covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// toRequest applies a create payload to the default request, as the hub
// does for POST /api/sessions.
func toRequest(cr webui.CreateRequest) steering.Request {
	req := steering.DefaultRequest()
	set := func(dst *string, v string) {
		if v != "" {
			*dst = v
		}
	}
	set(&req.Simulator, cr.Simulator)
	set(&req.Variable, cr.Variable)
	set(&req.Method, cr.Method)
	set(&req.SourceNode, cr.SourceNode)
	set(&req.ClientNode, cr.ClientNode)
	if cr.Isovalue != 0 {
		req.Isovalue = float32(cr.Isovalue)
	}
	if cr.NX > 0 {
		req.NX, req.NY, req.NZ = cr.NX, cr.NY, cr.NZ
	}
	if cr.StepsPerFrame > 0 {
		req.StepsPerFrame = cr.StepsPerFrame
	}
	if len(cr.ClientNodes) > 0 {
		req.ClientNodes = cr.ClientNodes
	}
	return req
}

// newSim builds the simulator a session of req runs.
func newSim(req steering.Request) *simengine.Sim {
	if req.Simulator == "bowshock" {
		return simengine.NewBowShock(req.NX, req.NY, req.NZ, simengine.DefaultBowShockParams())
	}
	return simengine.NewSod(req.NX, req.NY, req.NZ, simengine.DefaultSodParams())
}

// stageReplay holds the isolated per-stage timings of one session shape.
type stageReplay struct {
	Role                                            string
	StageSumMS, StepMS, SnapMS, ExtractMS, EncodeMS dist
	RaycastMS, StreamlineMS, DownscaleMS, DeltaMS   dist
	PoolWaitMS                                      dist
}

// replayFrames is how many frames each session shape is replayed for.
const replayFrames = 16

// replayStages re-runs one session's frame stages in isolation on the
// workload's inputs: the same shape, the seeded steers applied between
// frames, and the tiers the session's viewers negotiate.
func replayStages(tr *tracer, now func() int64, spec sessionSpec, steers []steerOp) *stageReplay {
	req := toRequest(spec.Create)
	sim := newSim(req)
	q := fcp.Default().NewQueue()
	sim.SetQueue(q)
	var tiers []cost.Tier
	for t := cost.TierHalf; int(t) < cost.NumTiers; t++ {
		if spec.InProc[t] > 0 || spec.HTTPTier == t.String() {
			tiers = append(tiers, t)
		}
	}
	var (
		sc    viz.FrameScratch
		roi   viz.BlockMeshCache
		enc   [cost.NumTiers]viz.TierEncoder
		buf   bytes.Buffer
		field *grid.ScalarField
	)
	out := &stageReplay{Role: spec.Role}
	for f := 0; f < replayFrames; f++ {
		if len(steers) > 0 {
			op := steers[f%len(steers)]
			p := sim.Params()
			p.LeftPressure, p.LeftDensity = op.Form.LeftPressure, op.Form.LeftDensity
			sim.SetParams(p)
			req.Isovalue = float32(op.Form.Isovalue)
			req.Camera.Yaw, req.Camera.Pitch, req.Camera.Zoom = op.Form.Yaw, op.Form.Pitch, op.Form.Zoom
		}
		f0 := now()
		root := tr.span(spanReplayFrame, 0, uint64(f), f0, f0) // end set by closeSpan
		stage := func(name string, fn func()) float64 {
			t0 := now()
			fn()
			t1 := now()
			tr.span(name, root, uint64(f), t0, t1)
			return float64(t1-t0) / 1e6
		}
		add := func(d *dist, ms float64) float64 {
			*d = append(*d, ms)
			return ms
		}
		var sum float64
		for i := 0; i < req.StepsPerFrame; i++ {
			sum += add(&out.StepMS, stage(spanStep, func() { sim.Step() }))
		}
		sum += add(&out.SnapMS, stage(spanSnapshot, func() {
			if req.Variable == "pressure" {
				field = sim.PressureInto(field)
			} else {
				field = sim.DensityInto(field)
			}
		}))
		var img *viz.Image
		var err error
		render := func() { img, err = steering.RenderDataset(field, req, 512, 512) }
		switch req.Method {
		case "raycast":
			sum += add(&out.RaycastMS, stage(spanRaycast, render))
		case "streamline":
			sum += add(&out.StreamlineMS, stage(spanStreamline, render))
		default:
			sum += add(&out.ExtractMS, stage(spanROI, func() {
				img, err = steering.RenderDatasetROI(&sc, &roi, q, field, req, 512, 512)
			}))
		}
		if err == nil {
			sum += add(&out.EncodeMS, stage(spanEncode, func() { buf.Reset(); err = img.EncodePNG(&buf) }))
		}
		for _, t := range tiers {
			if err != nil {
				break
			}
			if t == cost.TierDelta {
				sum += add(&out.DeltaMS, stage(spanDelta, func() { _, _ = enc[t].EncodeDelta(img, false, &buf) }))
				continue
			}
			factor := 2
			if t == cost.TierQuarter {
				factor = 4
			}
			sum += add(&out.DownscaleMS, stage(spanDownscale, func() { _ = enc[t].EncodeDownscaled(img, factor, &buf) }))
		}
		out.PoolWaitMS = append(out.PoolWaitMS, float64(q.TakeWait())/1e6)
		out.StageSumMS = append(out.StageSumMS, sum)
		tr.closeSpan(root, now())
	}
	return out
}

// closeSpan sets the end of a span recorded open.
func (t *tracer) closeSpan(id uint64, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].End = end
			return
		}
	}
}

// controlReplay times the control-plane calls on the idle live manager:
// optimizer misses then hits on novel isovalues, remeasures, and
// create -> first frame -> destroy cycles.
type controlReplay struct {
	OptMissMS, OptHitMS, RemeasureMS, FirstFrameMS dist
}

func replayControl(tr *tracer, svc *service, seed int64) (*controlReplay, error) {
	w := svc.w
	out := &controlReplay{}
	now := svc.rec.now
	spec := w.Sessions[0]
	req := toRequest(spec.Create)
	// Each round remeasures under a fresh testbed seed, which re-stamps the
	// graph when the estimates drift, then consults the optimizer twice on
	// the primary session's pipeline: a miss under the new graph, then a hit.
	p := steering.BuildIsoPipeline(steering.AnalyzeDataset(newSim(req).Density(),
		req.Simulator, req.BlockEdge, req.Isovalue))
	cmgr := svc.mgr.CM()
	rng := stream(seed, 6)
	for i := 0; i < 6; i++ {
		s := 1 + rng.Int63n(1<<30)
		t0 := now()
		svc.mgr.Remeasure(s)
		t1 := now()
		tr.span(spanRemeasure, 0, uint64(s), t0, t1)
		out.RemeasureMS = append(out.RemeasureMS, float64(t1-t0)/1e6)
		for pass := 0; pass < 2; pass++ {
			before := cmgr.CacheStats()
			t0 := now()
			var err error
			if len(req.ClientNodes) > 0 {
				_, err = cmgr.OptimizeMultiTiered(p, req.SourceNode, req.ClientNodes, w.MaxTier)
			} else {
				_, err = cmgr.Optimize(p, req.SourceNode, req.ClientNode)
			}
			t1 := now()
			tr.span(spanOptimize, 0, uint64(i), t0, t1)
			if err != nil {
				return nil, fmt.Errorf("replay optimize: %w", err)
			}
			after := cmgr.CacheStats()
			ms := float64(t1-t0) / 1e6
			switch {
			case after.Misses > before.Misses:
				out.OptMissMS = append(out.OptMissMS, ms)
			case after.Hits > before.Hits:
				out.OptHitMS = append(out.OptHitMS, ms)
			}
		}
	}
	shape := probeShape
	if len(w.StartShapes) > 0 {
		shape = w.StartShapes[0]
	}
	for i := 0; i < 10; i++ {
		t0 := now()
		root := tr.span(spanBenchCycle, 0, uint64(i), t0, t0)
		sreq := toRequest(shape)
		s, err := svc.mgr.CreateTuned(sreq, time.Duration(shape.FramePeriodMS)*time.Millisecond, 0, 0)
		t1 := now()
		tr.span(spanCreate, root, uint64(i), t0, t1)
		if err != nil {
			return nil, fmt.Errorf("replay create: %w", err)
		}
		v := s.AttachViewer()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, _, err = v.Wait(ctx, 0)
		cancel()
		t2 := now()
		tr.span(spanFirstWait, root, uint64(i), t1, t2)
		v.Close()
		if err != nil {
			return nil, fmt.Errorf("replay first frame: %w", err)
		}
		out.FirstFrameMS = append(out.FirstFrameMS, float64(t2-t0)/1e6)
		if err := svc.mgr.Destroy(s.ID); err != nil {
			return nil, fmt.Errorf("replay destroy: %w", err)
		}
		t3 := now()
		tr.span(spanDestroy, root, uint64(i), t2, t3)
		tr.closeSpan(root, t3)
	}
	return out, nil
}
