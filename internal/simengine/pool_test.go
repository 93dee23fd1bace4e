package simengine

import (
	"runtime"
	"testing"

	"ricsa/internal/fcp"
	"ricsa/internal/testutil"
)

// TestPooledSweepsBitIdenticalToInline pins the solver's pool determinism
// contract: sweeps fanned out over the shared frame-compute pool produce
// bit-for-bit the same state as the inline single-worker path, at any pool
// width. Pencils touch disjoint cells and each pencil's float sequence is
// slot-independent, so this must hold exactly, not approximately.
func TestPooledSweepsBitIdenticalToInline(t *testing.T) {
	for _, width := range []int{2, 3, 8} {
		pool := fcp.NewPool(width)

		inline := NewBowShock(24, 16, 12, DefaultBowShockParams())
		inline.SetWorkers(1)
		pooled := NewBowShock(24, 16, 12, DefaultBowShockParams())
		pooled.SetWorkers(0)
		pooled.SetQueue(pool.NewQueue())

		for step := 0; step < 10; step++ {
			dtA := inline.Step()
			dtB := pooled.Step()
			if dtA != dtB {
				t.Fatalf("width %d step %d: dt %v vs %v", width, step, dtA, dtB)
			}
		}
		a := inline.Density()
		b := pooled.Density()
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("width %d: density[%d] differs: %v vs %v", width, i, a.Data[i], b.Data[i])
			}
		}
		pa := inline.Pressure()
		pb := pooled.Pressure()
		for i := range pa.Data {
			if pa.Data[i] != pb.Data[i] {
				t.Fatalf("width %d: pressure[%d] differs", width, i)
			}
		}
		pool.Close()
	}
}

// TestClosedPoolStepStillCompletes: a Sim whose queue's pool has been torn
// down must keep stepping (inline) rather than hang — the SetDefaultWorkers
// rebuild path depends on this degradation.
func TestClosedPoolStepStillCompletes(t *testing.T) {
	pool := fcp.NewPool(4)
	sim := NewSod(16, 8, 8, DefaultSodParams())
	sim.SetWorkers(0)
	sim.SetQueue(pool.NewQueue())
	sim.Step()
	pool.Close()
	for i := 0; i < 3; i++ {
		if dt := sim.Step(); dt <= 0 {
			t.Fatalf("step %d returned dt %v", i, dt)
		}
	}
}

// TestSimStepAllocationFlat pins steady-state Step at zero allocations per
// cycle, inline and over a 2-wide pool: pencil scratch, the pool batch
// descriptor and the fused CFL reduction are all reused across steps.
func TestSimStepAllocationFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pool := fcp.NewPool(2)
	defer pool.Close()
	for _, pooled := range []bool{false, true} {
		sim := NewBowShock(24, 12, 10, DefaultBowShockParams())
		sim.SetWorkers(1)
		if pooled {
			sim.SetWorkers(0)
			sim.SetQueue(pool.NewQueue())
		}
		sim.Step() // warm: scratch growth, first full CFL pass
		sim.Step()
		if allocs := testing.AllocsPerRun(20, func() { sim.Step() }); allocs > 0 {
			t.Fatalf("pooled=%v: steady-state Step allocates %.1f allocs/op, want 0", pooled, allocs)
		}
	}
}
