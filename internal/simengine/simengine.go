// Package simengine is the computation being monitored and steered: a
// finite-volume compressible Euler solver in the style of the Virginia
// Hydrodynamics (VH1) code the paper instruments (Fig. 7). The solver uses
// dimensional splitting — the sweepx/sweepy/sweepz structure of VH1's main
// loop — with MUSCL (minmod-limited) reconstruction and HLL fluxes, and
// runs each sweep's pencils on the shared frame-compute pool (internal/fcp)
// or inline on the stepping goroutine.
//
// Two canonical problems are provided: the Sod shock tube (the paper's GUI
// example) with an exact Riemann solution for verification, and a stellar
// wind bow shock (the paper's Fig. 6 animation) formed by supersonic inflow
// around a rigid spherical obstacle.
package simengine

import (
	"math"
	"runtime"
	"sync"

	"ricsa/internal/fcp"
)

// Params are the steerable physics and numerics parameters. The RICSA GUI
// exposes these as "computation control parameters"; updating them mid-run
// is the steering operation.
type Params struct {
	Gamma float64 // ratio of specific heats
	CFL   float64 // Courant number in (0, 1)

	// Sod initial conditions: left/right density and pressure across the
	// diaphragm. Steering the pressure ratio mid-run re-energizes the tube.
	LeftDensity   float64
	LeftPressure  float64
	RightDensity  float64
	RightPressure float64

	// Bow shock wind parameters.
	WindDensity  float64
	WindVelocity float64
	WindPressure float64
}

// DefaultSodParams returns the classical Sod setup.
func DefaultSodParams() Params {
	return Params{
		Gamma:         1.4,
		CFL:           0.4,
		LeftDensity:   1.0,
		LeftPressure:  1.0,
		RightDensity:  0.125,
		RightPressure: 0.1,
	}
}

// DefaultBowShockParams returns a Mach ~3 wind.
func DefaultBowShockParams() Params {
	return Params{
		Gamma:        1.4,
		CFL:          0.35,
		WindDensity:  1.0,
		WindVelocity: 3.0,
		WindPressure: 0.6,
	}
}

// Problem selects the initial/boundary condition family.
type Problem int

// Problem kinds.
const (
	ProblemSod Problem = iota
	ProblemBowShock
)

// Sim is a running simulation instance.
type Sim struct {
	Problem    Problem
	NX, NY, NZ int

	mu    sync.Mutex
	par   Params
	rho   []float64
	mx    []float64 // momentum components
	my    []float64
	mz    []float64
	en    []float64 // total energy density
	solid []bool    // rigid obstacle mask (bow shock)
	time  float64
	cycle int
	dx    float64
	nWork int
	// queue submits sweep batches to the shared frame-compute pool; lazily
	// attached to the process default pool unless a session injects its own
	// via SetQueue. task is the reusable batch descriptor.
	queue *fcp.Queue
	task  sweepTask
	// scratch caches per-slot pencil buffers, reused across sweeps and
	// steps so the steady-state solver loop performs no allocation.
	scratch []*sweepScratch
	// maxSpeed is the current state's maximum signal speed, refreshed by
	// each step's last sweep for the next step's timestep; 0 until the
	// first step's full pass.
	maxSpeed float64
	// pending holds a steering update applied at the next step boundary.
	pending *Params
}

// NewSod builds a shock tube along x. ny and nz may be 1 for a pure 1-D
// run or larger for a 3-D tube.
func NewSod(nx, ny, nz int, par Params) *Sim {
	s := newSim(ProblemSod, nx, ny, nz, par)
	s.initSod()
	return s
}

// NewBowShock builds a wind tunnel with a rigid sphere obstacle.
func NewBowShock(nx, ny, nz int, par Params) *Sim {
	s := newSim(ProblemBowShock, nx, ny, nz, par)
	s.initBowShock()
	return s
}

func newSim(pr Problem, nx, ny, nz int, par Params) *Sim {
	if nx < 3 {
		nx = 3
	}
	if ny < 1 {
		ny = 1
	}
	if nz < 1 {
		nz = 1
	}
	n := nx * ny * nz
	return &Sim{
		Problem: pr,
		NX:      nx, NY: ny, NZ: nz,
		par:   par,
		rho:   make([]float64, n),
		mx:    make([]float64, n),
		my:    make([]float64, n),
		mz:    make([]float64, n),
		en:    make([]float64, n),
		solid: make([]bool, n),
		dx:    1.0 / float64(nx),
		nWork: runtime.GOMAXPROCS(0),
	}
}

func (s *Sim) idx(x, y, z int) int { return (z*s.NY+y)*s.NX + x }

func (s *Sim) initSod() {
	half := s.NX / 2
	g1 := s.par.Gamma - 1
	for z := 0; z < s.NZ; z++ {
		for y := 0; y < s.NY; y++ {
			for x := 0; x < s.NX; x++ {
				i := s.idx(x, y, z)
				if x < half {
					s.rho[i] = s.par.LeftDensity
					s.en[i] = s.par.LeftPressure / g1
				} else {
					s.rho[i] = s.par.RightDensity
					s.en[i] = s.par.RightPressure / g1
				}
			}
		}
	}
}

func (s *Sim) initBowShock() {
	g1 := s.par.Gamma - 1
	cx := float64(s.NX) * 0.35
	cy := float64(s.NY) / 2
	cz := float64(s.NZ) / 2
	r := 0.12 * float64(minI(s.NY, s.NX))
	if s.NZ > 1 {
		r = 0.12 * float64(minI(s.NZ, minI(s.NY, s.NX)))
	}
	for z := 0; z < s.NZ; z++ {
		for y := 0; y < s.NY; y++ {
			for x := 0; x < s.NX; x++ {
				i := s.idx(x, y, z)
				s.rho[i] = s.par.WindDensity
				s.mx[i] = s.par.WindDensity * s.par.WindVelocity
				kin := 0.5 * s.par.WindDensity * s.par.WindVelocity * s.par.WindVelocity
				s.en[i] = s.par.WindPressure/g1 + kin
				dz := 0.0
				if s.NZ > 1 {
					dz = float64(z) - cz
				}
				dxr, dyr := float64(x)-cx, float64(y)-cy
				if math.Sqrt(dxr*dxr+dyr*dyr+dz*dz) < r {
					s.solid[i] = true
					s.mx[i], s.my[i], s.mz[i] = 0, 0, 0
					s.en[i] = s.par.WindPressure / g1
				}
			}
		}
	}
}

// Params returns the current steerable parameters.
func (s *Sim) Params() Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.par
}

// SetParams schedules a steering update; it takes effect at the next step
// boundary, like VH1 handling a NewSimulationParameters message between
// cycles (Fig. 7).
func (s *Sim) SetParams(p Params) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := p
	s.pending = &cp
}

// SteerByName schedules a steering update that sets the physics parameters
// named in kv (keys setByName accepts; view keys sharing the steering map
// are ignored) on top of what the next step boundary would apply: the
// pending update if one is queued, else the current parameters. The
// read-modify-write holds the Sim's lock, so partial steers issued within
// one step interval compose instead of the later one dropping the earlier
// one's keys.
func (s *Sim) SteerByName(kv map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.par
	if s.pending != nil {
		p = *s.pending
	}
	for k, v := range kv {
		p.setByName(k, v)
	}
	s.pending = &p
}

// IsParamKey reports whether key names a steerable physics parameter.
func IsParamKey(key string) bool {
	var p Params
	return p.setByName(key, 0)
}

// setByName sets the parameter a steering key names and reports whether
// key names one; p is unchanged for any other key.
func (p *Params) setByName(key string, v float64) bool {
	switch key {
	case "left_pressure":
		p.LeftPressure = v
	case "left_density":
		p.LeftDensity = v
	case "right_pressure":
		p.RightPressure = v
	case "right_density":
		p.RightDensity = v
	case "gamma":
		p.Gamma = v
	case "cfl":
		p.CFL = v
	case "wind_velocity":
		p.WindVelocity = v
	case "wind_density":
		p.WindDensity = v
	default:
		return false
	}
	return true
}

// Time returns the simulated physical time. Safe to call while another
// goroutine drives Step (the web front ends poll it for status).
func (s *Sim) Time() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.time
}

// Cycle returns the number of completed steps. Safe to call while another
// goroutine drives Step.
func (s *Sim) Cycle() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cycle
}

// SetWorkers selects the sweep execution mode. With exactly one worker,
// sweeps run inline with zero per-step goroutine spawns — the
// allocation-flat mode the frame-stage benchmarks measure. Any other value
// (including <= 0) runs sweeps over the shared frame-compute pool, whose
// width — not n — bounds the parallelism. Call it between Steps, not
// concurrently with one.
func (s *Sim) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.nWork = n
}

// SetQueue attaches the Sim to a specific frame-compute pool queue — one
// queue per session keeps pool scheduling fair across sessions. A nil queue
// reverts to a lazily created queue on the process default pool. Call it
// between Steps, not concurrently with one.
func (s *Sim) SetQueue(q *fcp.Queue) { s.queue = q }

// queueFor returns the Sim's pool queue, attaching to the default pool on
// first pooled sweep.
func (s *Sim) queueFor() *fcp.Queue {
	if s.queue == nil {
		s.queue = fcp.Default().NewQueue()
	}
	return s.queue
}

// Step advances one cycle (sweepx, sweepy, sweepz) and returns the dt used.
//
// The timestep comes from the maximum signal speed of the current state.
// The previous step's last sweep already folded it out of its update loop
// (s.maxSpeed), so only the first step, and a step whose boundary applied a
// steering update (which may rewrite cells, gamma or CFL), pay a full
// maxSignalSpeed pass.
//
//ricsa:noalloc
func (s *Sim) Step() float64 {
	s.mu.Lock()
	steered := s.pending != nil
	if steered {
		s.applySteering(*s.pending)
		s.pending = nil
	}
	par := s.par
	s.mu.Unlock()

	if steered || s.maxSpeed == 0 {
		s.maxSpeed = s.maxSignalSpeed(par)
	}
	dt := par.CFL * s.dx / s.maxSpeed

	// A sweep along an axis shorter than 3 cells is a no-op, so the last
	// sweep that runs — the one that refreshes s.maxSpeed — is along the
	// last axis of length >= 3 (x always qualifies: newSim enforces NX >= 3).
	last := 0
	if s.NY >= 3 {
		last = 1
	}
	if s.NZ >= 3 {
		last = 2
	}
	s.sweep(0, dt, par, last == 0)
	if s.NY > 1 {
		s.sweep(1, dt, par, last == 1)
	}
	if s.NZ > 1 {
		s.sweep(2, dt, par, last == 2)
	}
	s.mu.Lock()
	s.time += dt
	s.cycle++
	s.mu.Unlock()
	return dt
}

// applySteering maps parameter changes onto the running state. Changing the
// Sod pressures re-pressurizes the corresponding halves (a visible steering
// effect); changing gamma or CFL simply alters subsequent dynamics; changing
// the wind re-seeds the inflow boundary (applied in sweeps).
func (s *Sim) applySteering(p Params) {
	old := s.par
	s.par = p
	if s.Problem == ProblemSod &&
		(p.LeftPressure != old.LeftPressure || p.RightPressure != old.RightPressure ||
			p.LeftDensity != old.LeftDensity || p.RightDensity != old.RightDensity) {
		// Re-drive the tube: reset the left fifth to the new left state,
		// which launches a fresh shock into the evolved interior.
		g1 := p.Gamma - 1
		for z := 0; z < s.NZ; z++ {
			for y := 0; y < s.NY; y++ {
				for x := 0; x < s.NX/5; x++ {
					i := s.idx(x, y, z)
					s.rho[i] = p.LeftDensity
					s.mx[i], s.my[i], s.mz[i] = 0, 0, 0
					s.en[i] = p.LeftPressure / g1
				}
			}
		}
	}
}

// minSignalSpeed floors the max-signal-speed reduction, keeping dt finite
// on a quiescent (or fully solid) field.
const minSignalSpeed = 1e-12

// maxSignalSpeed is the full CFL reduction: the maximum signal speed
// |u|max + c over every fluid cell of the current state.
func (s *Sim) maxSignalSpeed(par Params) float64 {
	maxSpeed := minSignalSpeed
	g := par.Gamma
	for i := range s.rho {
		if s.solid[i] {
			continue
		}
		r := s.rho[i]
		if r <= 0 {
			continue
		}
		if sp := signalSpeed(g, r, s.mx[i], s.my[i], s.mz[i], s.en[i]); sp > maxSpeed {
			maxSpeed = sp
		}
	}
	return maxSpeed
}

// signalSpeed is one cell's fastest signal, max(|u|, |v|, |w|) + c, from
// its conserved state (density r > 0, momentum, total energy e). The
// last sweep's fused reduction and the full maxSignalSpeed pass share it,
// so both produce the same bits. Absolute values are never signed zeros
// and any NaN input makes c (and so the sum) NaN, so the plain
// comparisons pick exactly what math.Max would.
func signalSpeed(g, r, mx, my, mz, e float64) float64 {
	u := mx / r
	v := my / r
	w := mz / r
	kin := 0.5 * r * (u*u + v*v + w*w)
	p := (g - 1) * (e - kin)
	if p < 1e-12 {
		p = 1e-12
	}
	c := math.Sqrt(g * p / r)
	vw := math.Abs(v)
	if aw := math.Abs(w); aw > vw {
		vw = aw
	}
	uvw := math.Abs(u)
	if vw > uvw {
		uvw = vw
	}
	return uvw + c
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
