package simengine

import "math"

// This file freezes the straightforward MUSCL-HLL kernel the optimized
// sweep must reproduce bit for bit: a recon closure computing each limited
// slope twice, an out-of-line hll with math.Min/math.Max, and a full
// stableDt pass before every step. It exists only as the reference the
// bit-identity tests step beside the production kernel; nothing outside
// _test.go files may call it.

// refScratch is the reference kernel's pencil buffer set (2 ghosts/side).
type refScratch struct {
	rho, un, ut1, ut2, pr   []float64
	fR, fMn, fMt1, fMt2, fE []float64
	solid                   []bool
}

func newRefScratch(n int) *refScratch {
	g := n + 2*ghosts
	return &refScratch{
		rho: make([]float64, g), un: make([]float64, g),
		ut1: make([]float64, g), ut2: make([]float64, g), pr: make([]float64, g),
		fR: make([]float64, n+1), fMn: make([]float64, n+1),
		fMt1: make([]float64, n+1), fMt2: make([]float64, n+1), fE: make([]float64, n+1),
		solid: make([]bool, g),
	}
}

// refStep advances s one cycle with the reference kernel, serially:
// steering at the step boundary, a full stableDt pass, then sweepx/y/z.
func refStep(s *Sim) float64 {
	s.mu.Lock()
	if s.pending != nil {
		s.applySteering(*s.pending)
		s.pending = nil
	}
	par := s.par
	s.mu.Unlock()

	dt := refStableDt(s, par)
	ws := newRefScratch(max(s.NX, s.NY, s.NZ))
	refSweep(s, 0, dt, par, ws)
	if s.NY > 1 {
		refSweep(s, 1, dt, par, ws)
	}
	if s.NZ > 1 {
		refSweep(s, 2, dt, par, ws)
	}
	s.mu.Lock()
	s.time += dt
	s.cycle++
	s.mu.Unlock()
	return dt
}

func refSweep(s *Sim, axis int, dt float64, par Params, ws *refScratch) {
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
	for p := 0; p < nPencil; p++ {
		refSweepPencil(s, axis, p, dt, par, ws)
	}
}

func refSweepPencil(s *Sim, axis, p int, dt float64, par Params, ws *refScratch) {
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

	for k, i := 0, base; k < n; k, i = k+1, i+stride {
		j := k + ghosts
		r := s.rho[i]
		if r < 1e-12 {
			r = 1e-12
		}
		un, ut1, ut2 := mn[i]/r, mt1[i]/r, mt2[i]/r
		kin := 0.5 * r * (un*un + ut1*ut1 + ut2*ut2)
		pr := g1 * (s.en[i] - kin)
		if pr < 1e-12 {
			pr = 1e-12
		}
		ws.rho[j], ws.un[j], ws.ut1[j], ws.ut2[j], ws.pr[j] = r, un, ut1, ut2, pr
		ws.solid[j] = s.solid[i]
	}

	refFillGhosts(s, axis, n, par, ws)

	for j := ghosts; j < n+ghosts; j++ {
		if !ws.solid[j] {
			continue
		}
		if j > 0 && !ws.solid[j-1] {
			ws.rho[j], ws.pr[j] = ws.rho[j-1], ws.pr[j-1]
			ws.un[j] = -ws.un[j-1]
			ws.ut1[j], ws.ut2[j] = 0, 0
		} else if j+1 < len(ws.solid) && !ws.solid[j+1] {
			ws.rho[j], ws.pr[j] = ws.rho[j+1], ws.pr[j+1]
			ws.un[j] = -ws.un[j+1]
			ws.ut1[j], ws.ut2[j] = 0, 0
		} else {
			ws.un[j], ws.ut1[j], ws.ut2[j] = 0, 0, 0
		}
	}

	recon := func(arr []float64, j int) (left, right float64) {
		sl := refMinmod(arr[j]-arr[j-1], arr[j+1]-arr[j])
		sr := refMinmod(arr[j+1]-arr[j], arr[j+2]-arr[j+1])
		return arr[j] + 0.5*sl, arr[j+1] - 0.5*sr
	}
	for f := 0; f <= n; f++ {
		jL := f + ghosts - 1
		rL, rR := recon(ws.rho, jL)
		uL, uR := recon(ws.un, jL)
		t1L, t1R := recon(ws.ut1, jL)
		t2L, t2R := recon(ws.ut2, jL)
		pL, pR := recon(ws.pr, jL)
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
		refHLL(g, rL, uL, t1L, t2L, pL, rR, uR, t1R, t2R, pR,
			&ws.fR[f], &ws.fMn[f], &ws.fMt1[f], &ws.fMt2[f], &ws.fE[f])
	}

	lam := dt / s.dx
	for k, i := 0, base; k < n; k, i = k+1, i+stride {
		if s.solid[i] {
			continue
		}
		dR := -lam * (ws.fR[k+1] - ws.fR[k])
		dMn := -lam * (ws.fMn[k+1] - ws.fMn[k])
		dMt1 := -lam * (ws.fMt1[k+1] - ws.fMt1[k])
		dMt2 := -lam * (ws.fMt2[k+1] - ws.fMt2[k])
		dE := -lam * (ws.fE[k+1] - ws.fE[k])
		s.rho[i] += dR
		if s.rho[i] < 1e-12 {
			s.rho[i] = 1e-12
		}
		mn[i] += dMn
		mt1[i] += dMt1
		mt2[i] += dMt2
		s.en[i] += dE
	}
}

func refFillGhosts(s *Sim, axis, n int, par Params, ws *refScratch) {
	for gi := 0; gi < ghosts; gi++ {
		ws.rho[gi], ws.un[gi] = ws.rho[ghosts], ws.un[ghosts]
		ws.ut1[gi], ws.ut2[gi], ws.pr[gi] = ws.ut1[ghosts], ws.ut2[ghosts], ws.pr[ghosts]
		ws.solid[gi] = false
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

func refHLL(g, rL, uL, t1L, t2L, pL, rR, uR, t1R, t2R, pR float64,
	fR, fMn, fMt1, fMt2, fE *float64) {
	cL := math.Sqrt(g * pL / rL)
	cR := math.Sqrt(g * pR / rR)
	sL := math.Min(uL-cL, uR-cR)
	sR := math.Max(uL+cL, uR+cR)

	eL := pL/(g-1) + 0.5*rL*(uL*uL+t1L*t1L+t2L*t2L)
	eR := pR/(g-1) + 0.5*rR*(uR*uR+t1R*t1R+t2R*t2R)

	fRL, fMnL := rL*uL, rL*uL*uL+pL
	fMt1L, fMt2L := rL*uL*t1L, rL*uL*t2L
	fEL := (eL + pL) * uL
	fRR, fMnR := rR*uR, rR*uR*uR+pR
	fMt1R, fMt2R := rR*uR*t1R, rR*uR*t2R
	fER := (eR + pR) * uR

	switch {
	case sL >= 0:
		*fR, *fMn, *fMt1, *fMt2, *fE = fRL, fMnL, fMt1L, fMt2L, fEL
	case sR <= 0:
		*fR, *fMn, *fMt1, *fMt2, *fE = fRR, fMnR, fMt1R, fMt2R, fER
	default:
		inv := 1 / (sR - sL)
		*fR = (sR*fRL - sL*fRR + sL*sR*(rR-rL)) * inv
		*fMn = (sR*fMnL - sL*fMnR + sL*sR*(rR*uR-rL*uL)) * inv
		*fMt1 = (sR*fMt1L - sL*fMt1R + sL*sR*(rR*t1R-rL*t1L)) * inv
		*fMt2 = (sR*fMt2L - sL*fMt2R + sL*sR*(rR*t2R-rL*t2L)) * inv
		*fE = (sR*fEL - sL*fER + sL*sR*(eR-eL)) * inv
	}
}

func refMinmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

func refStableDt(s *Sim, par Params) float64 {
	maxSpeed := 1e-12
	g := par.Gamma
	for i := range s.rho {
		if s.solid[i] {
			continue
		}
		r := s.rho[i]
		if r <= 0 {
			continue
		}
		u := s.mx[i] / r
		v := s.my[i] / r
		w := s.mz[i] / r
		kin := 0.5 * r * (u*u + v*v + w*w)
		p := (g - 1) * (s.en[i] - kin)
		if p < 1e-12 {
			p = 1e-12
		}
		c := math.Sqrt(g * p / r)
		sp := math.Max(math.Abs(u), math.Max(math.Abs(v), math.Abs(w))) + c
		if sp > maxSpeed {
			maxSpeed = sp
		}
	}
	return par.CFL * s.dx / maxSpeed
}
