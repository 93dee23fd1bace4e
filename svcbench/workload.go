package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/simengine"
	"ricsa/internal/steering"
	"ricsa/internal/webui"
)

// sessionSpec is one resident session of a workload: how it is created
// (the POST /api/sessions payload) and who watches it.
type sessionSpec struct {
	Role   string
	Create webui.CreateRequest
	// HTTPTier is the tier of the session's one HTTP long-poll viewer, or
	// "" for none. The workload's single viewer connection serves it.
	HTTPTier string
	// InProc counts in-process Viewer.Wait viewers per tier; SlowPerTier of
	// each tier's viewers pause long enough to be evicted and re-join.
	InProc      [cost.NumTiers]int
	SlowPerTier int
	// Steered sessions receive the workload's HTTP steers; Watched sessions
	// define frames_per_s and cpu_ms_per_frame.
	Steered bool
	Watched bool
	// IdlePolled sessions have no attached viewer and are read by a
	// stateless HTTP GET instead (the lazy-render path).
	IdlePolled bool
}

// workload is one traffic mix against the live service.
type workload struct {
	Name         string
	MaxTier      cost.Tier
	MaxViewerLag int
	Sessions     []sessionSpec
	// SteerEvery is the mean open-loop gap between HTTP steers; steerKind
	// picks which fields of the steering form a steer changes.
	SteerEvery time.Duration
	SteerKind  func(rng *rand.Rand) steerKind
	// StartEvery is the mean gap between create -> first frame -> destroy
	// cycles; StartShapes are cycled in order and StartIsos seeded
	// isovalues are drawn for them (0 keeps the shape's isovalue).
	StartEvery  time.Duration
	StartShapes []webui.CreateRequest
	StartIsos   int
	// IdlePollEvery paces the stateless GETs of IdlePolled sessions;
	// RemeasureEvery paces SessionManager.Remeasure (0 disables either).
	IdlePollEvery  time.Duration
	RemeasureEvery time.Duration
}

type steerKind int

const (
	steerCamera steerKind = iota
	steerSim
	steerIso
)

// probeShape is the small session the light start probe creates on the
// workloads whose own sessions are long-lived, so session_start_* is
// measured on every workload.
var probeShape = webui.CreateRequest{
	Simulator: "sod", NX: 24, NY: 12, NZ: 12, StepsPerFrame: 1, FramePeriodMS: 100,
}

var workloads = []*workload{
	{
		// Produce time exceeds the predicted delay, so the loop runs back to
		// back: simengine, viz and fcp do nearly all the work and compute
		// gains show 1:1.
		Name:    "steer-local",
		MaxTier: cost.TierFull,
		Sessions: []sessionSpec{{
			Role: "main",
			Create: webui.CreateRequest{
				Simulator: "sod", Variable: "density", Method: "isosurface",
				NX: 96, NY: 48, NZ: 48, StepsPerFrame: 2, FramePeriodMS: 1,
				SourceNode: "ORNL", ClientNode: "ORNL",
			},
			HTTPTier: "full",
			// In-process full-tier viewers add deliver-lag samples (a
			// p99 needs 1000) without adding tiers or encode work.
			InProc:  [cost.NumTiers]int{15, 0, 0, 0},
			Steered: true, Watched: true,
		}},
		SteerEvery: 60 * time.Millisecond,
		SteerKind: func(rng *rand.Rand) steerKind {
			return steerKind(rng.Intn(3))
		},
		StartEvery:  150 * time.Millisecond,
		StartShapes: []webui.CreateRequest{probeShape},
	},
	{
		// WAN pacing fixes the cadence and the simulation is small, so
		// publish/wait fan-out, the tier encoders and delivery do the work.
		Name:         "fanout-tiers",
		MaxTier:      cost.TierDelta,
		MaxViewerLag: 2,
		Sessions: []sessionSpec{{
			Role: "fanout",
			Create: webui.CreateRequest{
				Simulator: "sod", Variable: "density", Method: "isosurface",
				NX: 64, NY: 32, NZ: 32, StepsPerFrame: 1, FramePeriodMS: 100,
				SourceNode: "GaTech", ClientNodes: []string{"ORNL", "UT", "NCState"},
			},
			HTTPTier:    "delta",
			InProc:      [cost.NumTiers]int{100, 100, 100, 100},
			SlowPerTier: 5,
			Steered:     true, Watched: true,
		}},
		SteerEvery: 60 * time.Millisecond,
		// Mostly sim-parameter steers; the occasional yaw moves the whole
		// image and forces a delta re-key.
		SteerKind: func(rng *rand.Rand) steerKind {
			if rng.Float64() < 0.05 {
				return steerCamera
			}
			return steerSim
		},
		StartEvery:  150 * time.Millisecond,
		StartShapes: []webui.CreateRequest{probeShape},
	},
	{
		// The write side beside the read side: the control plane (DP,
		// cache, session lifecycle) and pool contention between sessions
		// next to frame production, on the only raycast and streamline
		// sessions. Periods keep the pool busy but under two cores.
		Name:    "multi-session-churn",
		MaxTier: cost.TierFull,
		Sessions: []sessionSpec{
			{
				Role: "raycast",
				Create: webui.CreateRequest{
					Simulator: "bowshock", Variable: "density", Method: "raycast",
					NX: 48, NY: 24, NZ: 24, StepsPerFrame: 1, FramePeriodMS: 400,
				},
				HTTPTier: "full",
				InProc:   [cost.NumTiers]int{8, 0, 0, 0},
				Steered:  true, Watched: true,
			},
			{
				Role: "streamline",
				Create: webui.CreateRequest{
					Simulator: "sod", Variable: "pressure", Method: "streamline",
					NX: 64, NY: 32, NZ: 32, StepsPerFrame: 1, FramePeriodMS: 150,
				},
				InProc:  [cost.NumTiers]int{16, 0, 0, 0},
				Steered: true, Watched: true,
			},
			{
				Role: "idle",
				Create: webui.CreateRequest{
					Simulator: "sod", Variable: "density", Method: "isosurface",
					NX: 64, NY: 32, NZ: 32, StepsPerFrame: 1, FramePeriodMS: 200,
				},
				IdlePolled: true,
			},
		},
		SteerEvery: 60 * time.Millisecond,
		SteerKind:  func(*rand.Rand) steerKind { return steerIso },
		StartEvery: 150 * time.Millisecond,
		StartShapes: []webui.CreateRequest{
			{Simulator: "sod", NX: 32, NY: 16, NZ: 16, StepsPerFrame: 1, FramePeriodMS: 100},
			{Simulator: "sod", NX: 40, NY: 20, NZ: 20, StepsPerFrame: 1, FramePeriodMS: 100},
		},
		StartIsos:      3,
		IdlePollEvery:  time.Second,
		RemeasureEvery: 4 * time.Second,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// form is the steering form the shipped browser client posts: every field,
// every time, with the changed ones edited (webui's steer form submits all
// of its inputs).
type form struct {
	LeftPressure, LeftDensity, Isovalue, Yaw, Pitch, Zoom float64
}

func (f form) params() map[string]float64 {
	return map[string]float64{
		"left_pressure": f.LeftPressure, "left_density": f.LeftDensity,
		"isovalue": f.Isovalue, "yaw": f.Yaw, "pitch": f.Pitch, "zoom": f.Zoom,
	}
}

// initialForm is the form state matching a freshly created session.
func initialForm(cr webui.CreateRequest) form {
	par := simengine.DefaultSodParams()
	if cr.Simulator == "bowshock" {
		par = simengine.DefaultBowShockParams()
	}
	def := steering.DefaultRequest()
	iso := float64(def.Isovalue)
	if cr.Isovalue != 0 {
		iso = cr.Isovalue
	}
	return form{
		LeftPressure: par.LeftPressure, LeftDensity: par.LeftDensity,
		Isovalue: iso, Yaw: def.Camera.Yaw, Pitch: def.Camera.Pitch, Zoom: def.Camera.Zoom,
	}
}

// steerOp is one scheduled HTTP steer of the whole form.
type steerOp struct {
	At      time.Duration
	Session int
	Form    form
}

// startOp is one scheduled create -> first frame -> destroy cycle.
type startOp struct {
	At  time.Duration
	Req webui.CreateRequest
}

type remeasureOp struct {
	At   time.Duration
	Seed int64
}

// schedule is every input a run feeds the service, derived from the seed
// alone. Times are offsets from the start of the measured window.
type schedule struct {
	Steers     []steerOp
	Starts     []startOp
	IdlePolls  []time.Duration
	Remeasures []remeasureOp
	// Slow marks, per session and in-process viewer, the viewers that
	// pause long enough to be evicted.
	Slow [][]bool
}

// stream derives an independent generator for one input stream, so adding
// a stream never shifts another's values.
func stream(seed int64, id int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + id))
}

// ticks returns open-loop send times over window with gaps jittered
// uniformly over [mean/2, 3*mean/2].
func ticks(rng *rand.Rand, mean, window time.Duration) []time.Duration {
	if mean <= 0 {
		return nil
	}
	var out []time.Duration
	t := time.Duration(0)
	for {
		t += time.Duration(float64(mean) * (0.5 + rng.Float64()))
		if t >= window {
			return out
		}
		out = append(out, t)
	}
}

// quant draws from [lo, hi] on a 1/64 grid, so values survive float32
// round trips and JSON exactly.
func quant(rng *rand.Rand, lo, hi float64) float64 {
	return math.Round((lo+rng.Float64()*(hi-lo))*64) / 64
}

// steerIsos is how many isovalues a steered session's isovalue steers cycle
// over. Eight strata are narrow enough that every seed's set costs about
// the same to extract; with four, one seed's set ran 15% slower than
// another's on steer-local.
const steerIsos = 8

// isoSet draws n isovalues for the sod density range [0.3, 0.7], one from
// each of n equal strata. Extraction cost varies several-fold across the
// range, so stratifying keeps every seed's set spanning it alike.
func isoSet(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	w := 0.4 / float64(n)
	for i := range out {
		lo := 0.3 + w*float64(i)
		out[i] = quant(rng, lo+1.0/64, lo+w-1.0/64)
	}
	return out
}

// buildSchedule derives a run's inputs from the workload and seed.
func buildSchedule(w *workload, seed int64, window time.Duration) schedule {
	var sc schedule

	var steered []int
	for i, s := range w.Sessions {
		if s.Steered {
			steered = append(steered, i)
		}
	}
	if len(steered) > 0 {
		rng := stream(seed, 1)
		forms := make([]form, len(w.Sessions))
		isos := make([][]float64, len(w.Sessions))
		next := make([]int, len(w.Sessions))
		for _, i := range steered {
			forms[i] = initialForm(w.Sessions[i].Create)
			isos[i] = isoSet(rng, steerIsos)
		}
		for n, at := range ticks(rng, w.SteerEvery, window) {
			i := steered[n%len(steered)]
			f := &forms[i]
			switch w.SteerKind(rng) {
			case steerCamera:
				f.Yaw, f.Pitch, f.Zoom = quant(rng, 0.5, 1.3), quant(rng, 0.2, 0.5), quant(rng, 0.9, 1.1)
			case steerSim:
				f.LeftPressure, f.LeftDensity = quant(rng, 0.75, 1.25), quant(rng, 0.75, 1.25)
			case steerIso:
				f.Isovalue = isos[i][next[i]%len(isos[i])]
				next[i]++
			}
			sc.Steers = append(sc.Steers, steerOp{At: at, Session: i, Form: *f})
		}
	}

	if len(w.StartShapes) > 0 {
		rng := stream(seed, 2)
		var isos []float64
		if w.StartIsos > 0 {
			isos = isoSet(rng, w.StartIsos)
		}
		for n, at := range ticks(rng, w.StartEvery, window) {
			req := w.StartShapes[n%len(w.StartShapes)]
			if len(isos) > 0 {
				req.Isovalue = isos[rng.Intn(len(isos))]
			}
			sc.Starts = append(sc.Starts, startOp{At: at, Req: req})
		}
	}

	sc.IdlePolls = ticks(stream(seed, 3), w.IdlePollEvery, window)

	rng := stream(seed, 4)
	for _, at := range ticks(rng, w.RemeasureEvery, window) {
		sc.Remeasures = append(sc.Remeasures, remeasureOp{At: at, Seed: 1 + rng.Int63n(1<<30)})
	}

	rng = stream(seed, 5)
	sc.Slow = make([][]bool, len(w.Sessions))
	for i, s := range w.Sessions {
		for t := 0; t < cost.NumTiers; t++ {
			slow := make([]bool, s.InProc[t])
			for _, k := range rng.Perm(s.InProc[t])[:min(s.SlowPerTier, s.InProc[t])] {
				slow[k] = true
			}
			sc.Slow[i] = append(sc.Slow[i], slow...)
		}
	}
	return sc
}

// controlOp is one entry of the control connection's merged timeline.
type controlOp struct {
	At    time.Duration
	Steer *steerOp
	Start *startOp
	Idle  bool
}

// timeline merges the control connection's operations in due order; ties
// keep steers first, then starts, then idle polls.
func (sc *schedule) timeline() []controlOp {
	var ops []controlOp
	for i := range sc.Steers {
		ops = append(ops, controlOp{At: sc.Steers[i].At, Steer: &sc.Steers[i]})
	}
	for i := range sc.Starts {
		ops = append(ops, controlOp{At: sc.Starts[i].At, Start: &sc.Starts[i]})
	}
	for _, at := range sc.IdlePolls {
		ops = append(ops, controlOp{At: at, Idle: true})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
}
