package simengine

import (
	"fmt"
	"math"
	"testing"

	"ricsa/internal/fcp"
)

// kernelCase is one grid shape for the frozen-reference comparison.
type kernelCase struct {
	name       string
	problem    Problem
	nx, ny, nz int
}

var kernelCases = []kernelCase{
	{"sod-3d", ProblemSod, 20, 10, 8},
	{"sod-2d", ProblemSod, 24, 10, 1},
	{"sod-1d", ProblemSod, 48, 1, 1},
	{"sod-ny2", ProblemSod, 16, 2, 6}, // y sweep skipped; z sweep is last
	{"sod-nz2", ProblemSod, 16, 6, 2}, // z sweep skipped; y sweep is last
	{"bow-3d", ProblemBowShock, 20, 12, 10},
	{"bow-2d", ProblemBowShock, 28, 14, 1},
	{"bow-1d", ProblemBowShock, 40, 1, 1},
}

func newKernelSim(c kernelCase) *Sim {
	if c.problem == ProblemBowShock {
		return NewBowShock(c.nx, c.ny, c.nz, DefaultBowShockParams())
	}
	return NewSod(c.nx, c.ny, c.nz, DefaultSodParams())
}

// kernelSteer is a mid-run steering update applied identically to both
// sims before the given step; each one forces the full maxSignalSpeed pass.
var kernelSteers = map[int]func(*Params){
	4:  func(p *Params) { p.LeftPressure = 4; p.WindVelocity = 3.5 },
	8:  func(p *Params) { p.Gamma = 1.6667 },
	11: func(p *Params) { p.CFL = 0.25 },
}

// TestSweepKernelBitIdenticalToReference is the optimized kernel's proof:
// stepped side by side with the frozen reference kernel (refkernel_test.go),
// every dt and every cell of every conserved field must match bit for bit —
// inline and pooled, across 3-D, 2-D, 1-D and skipped-axis shapes, through
// left-pressure, wind, gamma and CFL steers that force the full
// maxSignalSpeed pass between fused-CFL steps.
func TestSweepKernelBitIdenticalToReference(t *testing.T) {
	pool := fcp.NewPool(3)
	defer pool.Close()
	for _, c := range kernelCases {
		for _, pooled := range []bool{false, true} {
			mode := "inline"
			if pooled {
				mode = "pooled3"
			}
			t.Run(fmt.Sprintf("%s/%s", c.name, mode), func(t *testing.T) {
				ref := newKernelSim(c)
				sim := newKernelSim(c)
				sim.SetWorkers(1)
				if pooled {
					sim.SetWorkers(0)
					sim.SetQueue(pool.NewQueue())
				}
				for step := 0; step < 14; step++ {
					if steer := kernelSteers[step]; steer != nil {
						for _, s := range []*Sim{ref, sim} {
							p := s.Params()
							steer(&p)
							s.SetParams(p)
						}
					}
					want := refStep(ref)
					got := sim.Step()
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d: dt %v, reference %v", step, got, want)
					}
					assertSameState(t, step, ref, sim)
				}
			})
		}
	}
}

func assertSameState(t *testing.T, step int, ref, sim *Sim) {
	t.Helper()
	fields := []struct {
		name     string
		ref, got []float64
	}{
		{"rho", ref.rho, sim.rho},
		{"mx", ref.mx, sim.mx},
		{"my", ref.my, sim.my},
		{"mz", ref.mz, sim.mz},
		{"en", ref.en, sim.en},
	}
	for _, f := range fields {
		for i := range f.ref {
			if math.Float64bits(f.got[i]) != math.Float64bits(f.ref[i]) {
				t.Fatalf("step %d: %s[%d] = %v, reference %v", step, f.name, i, f.got[i], f.ref[i])
			}
		}
	}
}
