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
)

// CollabSource implements the paper's future-work item "collaborative
// visualization and steering ... within a group of geographically
// distributed users": one shared computation, many clients, each with its
// own view parameters (camera, isovalue) rendered server-side, while
// physics steering is shared by everyone.
//
// It satisfies FrameSource (anonymous clients share the default view) and
// ClientFrameSource (named clients get private views).
type CollabSource struct {
	mu      sync.Mutex
	sim     *simengine.Sim
	base    steering.Request
	field   *grid.ScalarField
	dataSeq uint64
	notify  chan struct{}
	views   map[string]*viewState
	stop    chan struct{}
	done    chan struct{}

	FramePeriod time.Duration
	Width       int
	Height      int
	// Clock paces the shared advance loop. Set before Start; nil selects
	// the wall clock.
	Clock clock.Clock
}

// viewState is one client's private visualization parameters plus a cache
// of the last frame rendered for it.
type viewState struct {
	req       steering.Request
	renderSeq uint64
	png       []byte
}

// NewCollabSource builds a collaborative source around a shared simulation.
func NewCollabSource(req steering.Request) (*CollabSource, error) {
	var sim *simengine.Sim
	switch req.Simulator {
	case "sod":
		sim = simengine.NewSod(req.NX, req.NY, req.NZ, simengine.DefaultSodParams())
	case "bowshock":
		sim = simengine.NewBowShock(req.NX, req.NY, req.NZ, simengine.DefaultBowShockParams())
	default:
		return nil, fmt.Errorf("webui: unknown simulator %q", req.Simulator)
	}
	return &CollabSource{
		sim:         sim,
		base:        req,
		notify:      make(chan struct{}),
		views:       make(map[string]*viewState),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		FramePeriod: 200 * time.Millisecond,
		Width:       384,
		Height:      384,
	}, nil
}

// Sim exposes the shared simulation.
func (c *CollabSource) Sim() *simengine.Sim { return c.sim }

// Start launches the shared simulate-publish loop. Rendering happens
// per-client on demand, so idle views cost nothing.
func (c *CollabSource) Start() {
	clk := c.Clock
	if clk == nil {
		clk = clock.Wall()
	}
	go func() {
		defer close(c.done)
		c.advance()
		// One timer, re-armed with Reset as the last clock interaction of
		// each iteration — the clock package's rendezvous contract.
		timer := clk.NewTimer(c.FramePeriod)
		defer timer.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-timer.C():
				c.advance()
				timer.Reset(c.FramePeriod)
			}
		}
	}()
}

// Stop halts the loop.
func (c *CollabSource) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

func (c *CollabSource) advance() {
	for i := 0; i < c.base.StepsPerFrame; i++ {
		c.sim.Step()
	}
	var field *grid.ScalarField
	if c.base.Variable == "pressure" {
		field = c.sim.Pressure()
	} else {
		field = c.sim.Density()
	}
	c.mu.Lock()
	c.field = field
	c.dataSeq++
	close(c.notify)
	c.notify = make(chan struct{})
	c.mu.Unlock()
}

// view returns (creating if necessary) the named client's view.
// Caller holds mu.
func (c *CollabSource) view(client string) *viewState {
	v, ok := c.views[client]
	if !ok {
		v = &viewState{req: c.base}
		c.views[client] = v
	}
	return v
}

// WaitFrameFor blocks until a dataset newer than since exists, then renders
// it under the client's private view parameters.
func (c *CollabSource) WaitFrameFor(ctx context.Context, client string, since uint64) (uint64, []byte, error) {
	for {
		c.mu.Lock()
		if c.dataSeq > since && c.field != nil {
			v := c.view(client)
			seq := c.dataSeq
			if v.renderSeq == seq && v.png != nil {
				png := v.png
				c.mu.Unlock()
				return seq, png, nil
			}
			field, req := c.field, v.req
			c.mu.Unlock()

			img, err := steering.RenderDataset(field, req, c.Width, c.Height)
			if err != nil {
				return 0, nil, err
			}
			png, err := img.PNG()
			if err != nil {
				return 0, nil, err
			}
			c.mu.Lock()
			v = c.view(client)
			v.renderSeq, v.png = seq, png
			c.mu.Unlock()
			return seq, png, nil
		}
		ch := c.notify
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-ch:
		}
	}
}

// SteerFor applies parameters for one client: physics keys steer the shared
// simulation (visible to everyone); view keys change only this client's
// rendering.
func (c *CollabSource) SteerFor(client string, params map[string]float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.view(client)
	steerSim := false
	for k, val := range params {
		switch k {
		case "isovalue":
			v.req.Isovalue = float32(val)
		case "yaw":
			v.req.Camera.Yaw = val
		case "pitch":
			v.req.Camera.Pitch = val
		case "zoom":
			v.req.Camera.Zoom = val
		default:
			if !simengine.IsParamKey(k) {
				return fmt.Errorf("webui: unknown steering parameter %q", k)
			}
			steerSim = true
		}
	}
	if steerSim {
		c.sim.SteerByName(params)
	}
	v.renderSeq = 0 // force re-render under the new view
	return nil
}

// WaitFrame implements FrameSource for anonymous clients (shared view).
func (c *CollabSource) WaitFrame(ctx context.Context, since uint64) (uint64, []byte, error) {
	return c.WaitFrameFor(ctx, "", since)
}

// Steer implements FrameSource for anonymous clients.
func (c *CollabSource) Steer(params map[string]float64) error {
	return c.SteerFor("", params)
}

// Status implements FrameSource.
func (c *CollabSource) Status() map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]any{
		"simulator": c.base.Simulator,
		"variable":  c.base.Variable,
		"cycle":     c.sim.Cycle(),
		"sim_time":  c.sim.Time(),
		"frame_seq": c.dataSeq,
		"viewers":   len(c.views),
	}
}
