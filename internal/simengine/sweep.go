package simengine

import (
	"math"

	"ricsa/internal/fcp"
)

// sweepTask adapts a sweep to the shared frame-compute pool: one item per
// pencil, per-worker scratch selected by the pool's slot index. Pencils
// along an axis touch disjoint cells and each pencil's float sequence is
// independent of which slot runs it, so a pooled sweep is bit-identical to
// the inline one at any pool width.
type sweepTask struct {
	s    *Sim
	axis int
	dt   float64
	par  Params
	cfl  bool
}

func (t *sweepTask) Run(worker, p int) {
	t.s.sweepPencil(t.axis, p, t.dt, t.par, t.s.scratch[worker], t.cfl)
}

// sweep applies the 1-D update along the given axis (0=x, 1=y, 2=z) to
// every pencil. This is VH1's sweepx/sweepy/sweepz with the role of
// "normal velocity" rotated per axis. With one worker the pencils run
// inline on the calling goroutine (the allocation-flat mode the frame
// benchmarks measure); otherwise they fan out over the shared
// frame-compute pool through the Sim's queue, competing fairly with other
// sessions' batches.
//
// With cfl set (the step's last sweep) each pencil also folds its updated
// cells' signal speeds into its slot's running max, and the slot maxima
// are reduced into s.maxSpeed for the next step's timestep. Max is exact
// and order-free, so the result equals a full maxSignalSpeed pass at any
// pool width.
//
//ricsa:noalloc
func (s *Sim) sweep(axis int, dt float64, par Params, cfl bool) {
	var nPencil, pLen int
	switch axis {
	case 0:
		nPencil, pLen = s.NY*s.NZ, s.NX
	case 1:
		nPencil, pLen = s.NX*s.NZ, s.NY
	default:
		nPencil, pLen = s.NX*s.NY, s.NZ
	}
	if pLen < 3 {
		return
	}

	var q *fcp.Queue
	slots := 1
	if s.nWork != 1 && nPencil > 1 {
		q = s.queueFor()
		slots = q.Slots()
	}
	scratch := s.ensureScratch(slots)[:slots]
	if cfl {
		for _, ws := range scratch {
			ws.maxSpeed = minSignalSpeed
		}
	}
	if slots == 1 {
		ws := scratch[0]
		for p := 0; p < nPencil; p++ {
			s.sweepPencil(axis, p, dt, par, ws, cfl)
		}
	} else {
		s.task = sweepTask{s: s, axis: axis, dt: dt, par: par, cfl: cfl}
		q.Run(nPencil, &s.task)
		s.task = sweepTask{}
	}
	if cfl {
		m := minSignalSpeed
		for _, ws := range scratch {
			if ws.maxSpeed > m {
				m = ws.maxSpeed
			}
		}
		s.maxSpeed = m
	}
}

// ensureScratch returns per-worker pencil scratch sized for the longest
// axis, growing the cached set on first use (or after SetWorkers) and
// reusing it on every subsequent sweep. Only the sweep path touches the
// cache, and workers never share an entry, so no locking is needed.
func (s *Sim) ensureScratch(workers int) []*sweepScratch {
	need := max(s.NX, s.NY, s.NZ)
	if len(s.scratch) < workers {
		old := s.scratch
		s.scratch = make([]*sweepScratch, workers)
		copy(s.scratch, old)
	}
	for i := 0; i < workers; i++ {
		if s.scratch[i] == nil || s.scratch[i].n < need {
			s.scratch[i] = newSweepScratch(need)
		}
	}
	return s.scratch
}

// sweepScratch holds per-worker pencil buffers (2 ghost cells per side),
// sized for pencils up to n cells and reused across sweeps and steps.
type sweepScratch struct {
	n                     int       // pencil capacity
	rho, un, ut1, ut2, pr []float64 // primitives with ghosts
	// Minmod-limited extrapolations of each primitive to every cell's low
	// and high face, computed once per cell by reconstruct.
	rhoLo, unLo, t1Lo, t2Lo, prLo []float64
	rhoHi, unHi, t1Hi, t2Hi, prHi []float64
	fR, fMn, fMt1, fMt2, fE       []float64 // interface fluxes
	solid                         []bool
	maxSpeed                      float64 // this slot's running max signal speed (cfl sweeps)
}

const ghosts = 2

func newSweepScratch(n int) *sweepScratch {
	g := n + 2*ghosts
	cells := func() []float64 { return make([]float64, g) }
	faces := func() []float64 { return make([]float64, n+1) }
	return &sweepScratch{
		n:   n,
		rho: cells(), un: cells(), ut1: cells(), ut2: cells(), pr: cells(),
		rhoLo: cells(), unLo: cells(), t1Lo: cells(), t2Lo: cells(), prLo: cells(),
		rhoHi: cells(), unHi: cells(), t1Hi: cells(), t2Hi: cells(), prHi: cells(),
		fR: faces(), fMn: faces(), fMt1: faces(), fMt2: faces(), fE: faces(),
		solid: make([]bool, g),
	}
}

// pencilBase returns the flat index of pencil p's first cell and the flat
// stride between consecutive cells along the axis, so the per-cell loops
// index with one add instead of a div/mod + idx() per cell.
func (s *Sim) pencilBase(axis, p int) (base, stride int) {
	switch axis {
	case 0:
		y := p % s.NY
		z := p / s.NY
		return (z*s.NY + y) * s.NX, 1
	case 1:
		x := p % s.NX
		z := p / s.NX
		return z*s.NY*s.NX + x, s.NX
	default:
		x := p % s.NX
		y := p / s.NX
		return y*s.NX + x, s.NX * s.NY
	}
}

// sweepPencil updates one pencil with MUSCL-HLL. Each cell's minmod slope
// is computed once and turned into the cell's two face extrapolations; the
// HLL flux is inlined in the face loop, forming the one-sided physical
// fluxes only where the wave fan needs them. Every expression keeps the
// operand order of the textbook per-face formulation (two slopes per face,
// out-of-line HLL), so the result is bit-identical to it. With cfl set, the
// update loop also folds each updated cell's signal speed into ws.maxSpeed
// (see sweep).
//
//ricsa:noalloc
func (s *Sim) sweepPencil(axis, p int, dt float64, par Params, ws *sweepScratch, cfl bool) {
	var n int
	switch axis {
	case 0:
		n = s.NX
	case 1:
		n = s.NY
	default:
		n = s.NZ
	}
	g := par.Gamma
	g1 := g - 1

	// Hoist the per-axis velocity rotation out of the cell loops: mn is the
	// normal momentum component, mt1/mt2 the transverse ones. The gather and
	// update below then run axis-free, with the same operand order (and so
	// bit-identical arithmetic) as the per-cell switch they replace.
	var mn, mt1, mt2 []float64
	switch axis {
	case 0:
		mn, mt1, mt2 = s.mx, s.my, s.mz
	case 1:
		mn, mt1, mt2 = s.my, s.mx, s.mz
	default:
		mn, mt1, mt2 = s.mz, s.mx, s.my
	}
	base, stride := s.pencilBase(axis, p)

	// Gather primitives with the axis-appropriate velocity rotation into the
	// interior (non-ghost) cells. Fixed-length views of the scratch let the
	// compiler drop the bounds checks on the scratch side of every loop.
	gn := n + 2*ghosts
	rho, un, ut1, ut2, pr := ws.rho[:gn], ws.un[:gn], ws.ut1[:gn], ws.ut2[:gn], ws.pr[:gn]
	solid := ws.solid[:gn]
	{
		iRho, iUn, iUt1 := rho[ghosts:][:n], un[ghosts:][:n], ut1[ghosts:][:n]
		iUt2, iPr, iSolid := ut2[ghosts:][:n], pr[ghosts:][:n], solid[ghosts:][:n]
		for k, i := 0, base; k < n; k, i = k+1, i+stride {
			r := s.rho[i]
			if r < 1e-12 {
				r = 1e-12
			}
			vn, vt1, vt2 := mn[i]/r, mt1[i]/r, mt2[i]/r
			kin := 0.5 * r * (vn*vn + vt1*vt1 + vt2*vt2)
			pc := g1 * (s.en[i] - kin)
			if pc < 1e-12 {
				pc = 1e-12
			}
			iRho[k], iUn[k], iUt1[k], iUt2[k], iPr[k] = r, vn, vt1, vt2, pc
			iSolid[k] = s.solid[i]
		}
	}

	s.fillGhosts(axis, n, par, ws)

	// Rigid cells reflect: treat a solid neighbor as a mirror with negated
	// normal velocity so fluxes vanish at the wall. The ghost padding gives
	// every interior cell both neighbors.
	for j := ghosts; j < len(solid)-ghosts; j++ {
		if !solid[j] {
			continue
		}
		// Copy the nearest fluid state mirrored.
		if !solid[j-1] {
			rho[j], pr[j] = rho[j-1], pr[j-1]
			un[j] = -un[j-1]
			ut1[j], ut2[j] = 0, 0
		} else if !solid[j+1] {
			rho[j], pr[j] = rho[j+1], pr[j+1]
			un[j] = -un[j+1]
			ut1[j], ut2[j] = 0, 0
		} else {
			un[j], ut1[j], ut2[j] = 0, 0, 0
		}
	}

	// Minmod-limited reconstruction, one slope per cell.
	reconstruct(rho, ws.rhoLo, ws.rhoHi)
	reconstruct(un, ws.unLo, ws.unHi)
	reconstruct(ut1, ws.t1Lo, ws.t1Hi)
	reconstruct(ut2, ws.t2Lo, ws.t2Hi)
	reconstruct(pr, ws.prLo, ws.prHi)

	// Interface fluxes. Face f separates cells f+1 and f+2 (ghost-offset):
	// its left state is the high-face extrapolation of the cell on its left,
	// its right state the low-face extrapolation of the cell on its right.
	m := n + 1
	fR, fMn, fMt1, fMt2, fE := ws.fR[:m], ws.fMn[:m], ws.fMt1[:m], ws.fMt2[:m], ws.fE[:m]
	rhoL, unL, t1Lf, t2Lf, prL := ws.rhoHi[1:][:m], ws.unHi[1:][:m], ws.t1Hi[1:][:m], ws.t2Hi[1:][:m], ws.prHi[1:][:m]
	rhoR, unR, t1Rf, t2Rf, prR := ws.rhoLo[2:][:m], ws.unLo[2:][:m], ws.t1Lo[2:][:m], ws.t2Lo[2:][:m], ws.prLo[2:][:m]
	for f := range fR {
		rL, uL, t1L, t2L, pL := rhoL[f], unL[f], t1Lf[f], t2Lf[f], prL[f]
		rR, uR, t1R, t2R, pR := rhoR[f], unR[f], t1Rf[f], t2Rf[f], prR[f]
		if rL < 1e-12 {
			rL = 1e-12
		}
		if rR < 1e-12 {
			rR = 1e-12
		}
		if pL < 1e-12 {
			pL = 1e-12
		}
		if pR < 1e-12 {
			pR = 1e-12
		}

		// HLL: bound the wave fan by the fastest left- and right-going
		// signals (plain comparisons select the same values math.Min and
		// math.Max would: a tie of signed zeros lands in the sL >= 0 or
		// sR <= 0 branch either way).
		cL := math.Sqrt(g * pL / rL)
		cR := math.Sqrt(g * pR / rR)
		sL, sR := uL-cL, uL+cL
		if v := uR - cR; v < sL {
			sL = v
		}
		if v := uR + cR; v > sR {
			sR = v
		}
		switch {
		case sL >= 0:
			eL := pL/g1 + 0.5*rL*(uL*uL+t1L*t1L+t2L*t2L)
			fR[f], fMn[f] = rL*uL, rL*uL*uL+pL
			fMt1[f], fMt2[f] = rL*uL*t1L, rL*uL*t2L
			fE[f] = (eL + pL) * uL
		case sR <= 0:
			eR := pR/g1 + 0.5*rR*(uR*uR+t1R*t1R+t2R*t2R)
			fR[f], fMn[f] = rR*uR, rR*uR*uR+pR
			fMt1[f], fMt2[f] = rR*uR*t1R, rR*uR*t2R
			fE[f] = (eR + pR) * uR
		default:
			eL := pL/g1 + 0.5*rL*(uL*uL+t1L*t1L+t2L*t2L)
			eR := pR/g1 + 0.5*rR*(uR*uR+t1R*t1R+t2R*t2R)
			fRL, fMnL := rL*uL, rL*uL*uL+pL
			fMt1L, fMt2L := rL*uL*t1L, rL*uL*t2L
			fEL := (eL + pL) * uL
			fRR, fMnR := rR*uR, rR*uR*uR+pR
			fMt1R, fMt2R := rR*uR*t1R, rR*uR*t2R
			fER := (eR + pR) * uR
			inv := 1 / (sR - sL)
			fR[f] = (sR*fRL - sL*fRR + sL*sR*(rR-rL)) * inv
			fMn[f] = (sR*fMnL - sL*fMnR + sL*sR*(rR*uR-rL*uL)) * inv
			fMt1[f] = (sR*fMt1L - sL*fMt1R + sL*sR*(rR*t1R-rL*t1L)) * inv
			fMt2[f] = (sR*fMt2L - sL*fMt2R + sL*sR*(rR*t2R-rL*t2L)) * inv
			fE[f] = (sR*fEL - sL*fER + sL*sR*(eR-eL)) * inv
		}
	}

	// Conservative update, skipping solid cells. Cell k lies between faces
	// k (lo) and k+1 (hi).
	lam := dt / s.dx
	fRlo, fMnlo, fMt1lo, fMt2lo, fElo := fR[:n], fMn[:n], fMt1[:n], fMt2[:n], fE[:n]
	fRhi, fMnhi, fMt1hi, fMt2hi, fEhi := fR[1:][:n], fMn[1:][:n], fMt1[1:][:n], fMt2[1:][:n], fE[1:][:n]
	maxSpeed := ws.maxSpeed
	for k, i := 0, base; k < n; k, i = k+1, i+stride {
		if s.solid[i] {
			continue
		}
		dR := -lam * (fRhi[k] - fRlo[k])
		dMn := -lam * (fMnhi[k] - fMnlo[k])
		dMt1 := -lam * (fMt1hi[k] - fMt1lo[k])
		dMt2 := -lam * (fMt2hi[k] - fMt2lo[k])
		dE := -lam * (fEhi[k] - fElo[k])
		r := s.rho[i] + dR
		if r < 1e-12 {
			r = 1e-12
		}
		s.rho[i] = r
		mn[i] += dMn
		mt1[i] += dMt1
		mt2[i] += dMt2
		s.en[i] += dE
		if cfl {
			if sp := signalSpeed(g, r, s.mx[i], s.my[i], s.mz[i], s.en[i]); sp > maxSpeed {
				maxSpeed = sp
			}
		}
	}
	ws.maxSpeed = maxSpeed
}

// reconstruct computes each cell's minmod-limited slope d once, for cells
// 1..len(q)-2, and stores the cell's linear extrapolation to its low face
// (lo = q - 0.5*d) and high face (hi = q + 0.5*d).
func reconstruct(q, lo, hi []float64) {
	left, right := q[:len(q)-2], q[2:]
	mid := q[1:][:len(left)]
	right = right[:len(left)]
	lo, hi = lo[1:][:len(left)], hi[1:][:len(left)]
	for j := range left {
		d := minmod(mid[j]-left[j], right[j]-mid[j])
		lo[j] = mid[j] - 0.5*d
		hi[j] = mid[j] + 0.5*d
	}
}

// fillGhosts sets boundary ghost cells: outflow (zero gradient) everywhere,
// except the bow shock's -x inflow which is pinned to the wind state.
func (s *Sim) fillGhosts(axis, n int, par Params, ws *sweepScratch) {
	for gi := 0; gi < ghosts; gi++ {
		// Low side.
		ws.rho[gi], ws.un[gi] = ws.rho[ghosts], ws.un[ghosts]
		ws.ut1[gi], ws.ut2[gi], ws.pr[gi] = ws.ut1[ghosts], ws.ut2[ghosts], ws.pr[ghosts]
		ws.solid[gi] = false
		// High side.
		hi := n + ghosts + gi
		ws.rho[hi], ws.un[hi] = ws.rho[n+ghosts-1], ws.un[n+ghosts-1]
		ws.ut1[hi], ws.ut2[hi], ws.pr[hi] = ws.ut1[n+ghosts-1], ws.ut2[n+ghosts-1], ws.pr[n+ghosts-1]
		ws.solid[hi] = false
	}
	if s.Problem == ProblemBowShock && axis == 0 {
		for gi := 0; gi < ghosts; gi++ {
			ws.rho[gi] = par.WindDensity
			ws.un[gi] = par.WindVelocity
			ws.ut1[gi], ws.ut2[gi] = 0, 0
			ws.pr[gi] = par.WindPressure
		}
	}
}

func minmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}
