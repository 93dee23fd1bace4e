package webui

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ricsa/internal/clock"
	"ricsa/internal/grid"
	"ricsa/internal/simengine"
	"ricsa/internal/steering"
	"ricsa/internal/viz"
)

// LiveSource runs a simulation and renders its frames in real time,
// publishing them to any number of waiting web clients. It is the
// FrameSource behind cmd/ricsa-server and the webdemo example. Pacing
// runs on an injected clock.Clock (wall by default), so tests drive the
// loop deterministically with a clock.Virtual instead of sleeping.
type LiveSource struct {
	mu     sync.Mutex
	sim    *simengine.Sim
	req    steering.Request
	seq    uint64
	png    []byte
	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}

	// FramePeriod paces frame production; StepsPerFrame solver cycles run
	// per frame.
	FramePeriod time.Duration
	Width       int
	Height      int
	// Clock paces the produce loop. Set before Start; nil selects the
	// wall clock.
	Clock clock.Clock

	// scratch and fieldScratch are the producer loop's reusable frame data
	// plane (only the produce goroutine touches them); published PNG bytes
	// are fresh copies, so viewers never see them change.
	scratch      viz.FrameScratch
	fieldScratch *grid.ScalarField
}

// NewLiveSource builds a live source for the request. Call Start to begin.
func NewLiveSource(req steering.Request) (*LiveSource, error) {
	var sim *simengine.Sim
	switch req.Simulator {
	case "sod":
		sim = simengine.NewSod(req.NX, req.NY, req.NZ, simengine.DefaultSodParams())
	case "bowshock":
		sim = simengine.NewBowShock(req.NX, req.NY, req.NZ, simengine.DefaultBowShockParams())
	default:
		return nil, fmt.Errorf("webui: unknown simulator %q", req.Simulator)
	}
	return &LiveSource{
		sim:         sim,
		req:         req,
		notify:      make(chan struct{}),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		FramePeriod: 200 * time.Millisecond,
		Width:       512,
		Height:      512,
	}, nil
}

// Sim exposes the underlying simulation (for tests and status).
func (l *LiveSource) Sim() *simengine.Sim { return l.sim }

// Start launches the simulate-render-publish loop.
func (l *LiveSource) Start() {
	clk := l.Clock
	if clk == nil {
		clk = clock.Wall()
	}
	go func() {
		defer close(l.done)
		l.produce() // first frame immediately
		// One timer, re-armed with Reset as the last clock interaction of
		// each iteration — the clock package's rendezvous contract.
		timer := clk.NewTimer(l.FramePeriod)
		defer timer.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-timer.C():
				l.produce()
				timer.Reset(l.FramePeriod)
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit.
func (l *LiveSource) Stop() {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	<-l.done
}

func (l *LiveSource) produce() {
	l.mu.Lock()
	req := l.req
	l.mu.Unlock()

	for i := 0; i < req.StepsPerFrame; i++ {
		l.sim.Step()
	}
	if req.Variable == "pressure" {
		l.fieldScratch = l.sim.PressureInto(l.fieldScratch)
	} else {
		l.fieldScratch = l.sim.DensityInto(l.fieldScratch)
	}
	img, err := steering.RenderDatasetInto(&l.scratch, l.fieldScratch, req, l.Width, l.Height)
	if err != nil {
		return
	}
	png, err := img.PNG()
	if err != nil {
		return
	}

	l.mu.Lock()
	l.seq++
	l.png = png
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
}

// WaitFrame implements FrameSource.
func (l *LiveSource) WaitFrame(ctx context.Context, since uint64) (uint64, []byte, error) {
	for {
		l.mu.Lock()
		if l.seq > since && l.png != nil {
			seq, png := l.seq, l.png
			l.mu.Unlock()
			return seq, png, nil
		}
		ch := l.notify
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-ch:
		}
	}
}

// Steer implements FrameSource: physics keys steer the simulation (applied
// at the next step boundary); view keys adjust the visualization request.
func (l *LiveSource) Steer(params map[string]float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	steerSim := false
	for k, v := range params {
		switch k {
		case "isovalue":
			l.req.Isovalue = float32(v)
		case "yaw":
			l.req.Camera.Yaw = v
		case "pitch":
			l.req.Camera.Pitch = v
		case "zoom":
			l.req.Camera.Zoom = v
		default:
			if !simengine.IsParamKey(k) {
				return fmt.Errorf("webui: unknown steering parameter %q", k)
			}
			steerSim = true
		}
	}
	if steerSim {
		l.sim.SteerByName(params)
	}
	return nil
}

// Status implements FrameSource.
func (l *LiveSource) Status() map[string]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.sim.Params()
	return map[string]any{
		"simulator":     l.req.Simulator,
		"variable":      l.req.Variable,
		"method":        l.req.Method,
		"cycle":         l.sim.Cycle(),
		"sim_time":      l.sim.Time(),
		"frame_seq":     l.seq,
		"isovalue":      l.req.Isovalue,
		"left_pressure": p.LeftPressure,
		"left_density":  p.LeftDensity,
	}
}
