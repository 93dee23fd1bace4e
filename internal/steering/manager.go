package steering

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"ricsa/internal/clock"
	"ricsa/internal/cm"
	"ricsa/internal/cost"
	"ricsa/internal/fcp"
	"ricsa/internal/grid"
	"ricsa/internal/netsim"
	"ricsa/internal/pipeline"
	"ricsa/internal/simengine"
	"ricsa/internal/telemetry"
	"ricsa/internal/viz"
)

// This file is the multi-session deployment service: SessionManager owns N
// concurrent *live* sessions — each a real simulation advancing in wall
// time with its own lifecycle goroutine — as wall-clock clients of one
// shared cm.Manager control loop: one measured network graph kept fresh by
// the background Prober, one memoized optimizer. Sessions re-consult the
// CM as conditions change; identical (graph, pipeline, endpoints) instances
// across sessions and across time are answered from the cache instead of
// re-running the dynamic program, and each session's frame pacing charges
// its installed mapping's predicted delay — the paper's semantics that the
// loop does not advance until the previous image is delivered.

// Manager errors.
var (
	// ErrSessionLimit is returned by Create when the manager is at its
	// -max-sessions capacity.
	ErrSessionLimit = errors.New("steering: session limit reached")
	// ErrNoSession is returned for operations on unknown or destroyed ids.
	ErrNoSession = errors.New("steering: no such session")
	// ErrShuttingDown is returned by Create after Shutdown began.
	ErrShuttingDown = errors.New("steering: manager is shutting down")
	// ErrOverloaded is returned by Create when admitting the session would
	// push the service past its frame-budget watermark even though slots
	// remain below -max-sessions. The web layer maps it to HTTP 503.
	ErrOverloaded = errors.New("steering: service overloaded")
	// ErrViewerEvicted is returned by a tracked Viewer's Wait/Poll after
	// the slow-consumer policy evicted it for falling more than
	// MaxViewerLag frames behind the live sequence.
	ErrViewerEvicted = errors.New("steering: viewer evicted (too far behind frame stream)")
)

// ManagerConfig tunes a SessionManager.
type ManagerConfig struct {
	// MaxSessions bounds concurrently live sessions (<= 0 selects 8).
	MaxSessions int
	// CacheCapacity bounds the shared optimizer cache
	// (<= 0 selects pipeline.DefaultCacheCapacity).
	CacheCapacity int
	// ReoptimizeEvery is the number of frames between a session's
	// consultations of the CM optimizer (<= 0 selects 8). Consultations
	// whose inputs are unchanged hit the shared cache.
	ReoptimizeEvery int
	// Seed drives the emulated testbed network the CM measures.
	Seed int64
	// ProbeInterval is the wall-clock cadence of the CM's background
	// Prober (<= 0 disables it; tests drive ProbeTick explicitly).
	ProbeInterval time.Duration
	// ProbeLinksPerTick is how many directed edges one prober tick
	// re-probes (<= 0 selects the cm default).
	ProbeLinksPerTick int
	// ProbeTolerance is the relative estimate drift that re-stamps the
	// graph (<= 0 selects the cm default).
	ProbeTolerance float64
	// AdaptTolerance and AdaptWindow parameterize session Adapters: a
	// frame whose re-predicted delay exceeds the installed VRT's by more
	// than the tolerance fraction counts as deviating, and AdaptWindow
	// consecutive deviations force a re-optimization (<= 0 select the cm
	// defaults).
	AdaptTolerance float64
	AdaptWindow    int
	// ProbeBudget bounds each probe transfer in virtual time (<= 0 selects
	// the cm default); scenario runs with dark links tighten it.
	ProbeBudget time.Duration
	// FrameBudget is the admission-control watermark: every admitted
	// session charges FrameCost/FramePeriod utilization units (the
	// fraction of one core its frame production nominally occupies), and
	// Create rejects with ErrOverloaded once the sum would exceed
	// FrameBudget. The charge is fixed at admission from configuration, so
	// the decision is deterministic and independent of probe state.
	// <= 0 disables the watermark (the hard MaxSessions cap still holds).
	FrameBudget float64
	// FrameCost is the nominal production cost of one frame used by the
	// FrameBudget watermark (<= 0 disables the watermark's charge).
	FrameCost time.Duration
	// MaxViewerLag is the slow-consumer eviction threshold: a tracked
	// Viewer (AttachViewer) more than MaxViewerLag frames behind the live
	// sequence is evicted at the next publish instead of the session
	// buffering for it without bound. <= 0 disables eviction. Presence-only
	// Attach viewers are exempt.
	MaxViewerLag int
	// Telemetry receives per-frame records and the service counters. nil
	// creates a counters-only collector (no sink), so the counters are
	// always live.
	Telemetry *telemetry.Collector
	// Clock paces every control loop of the service — the CM's background
	// Prober and each session's frame loop. nil selects the wall clock;
	// the scenario engine injects a clock.Virtual to run the whole live
	// stack deterministically.
	Clock clock.Clock
	// ComputePool is the shared frame-compute pool every session's sim
	// sweeps and block extraction run over, each through its own queue so
	// pool scheduling stays fair across sessions. nil selects the process
	// default pool (fcp.Default).
	ComputePool *fcp.Pool
	// TransportMode selects how the optimizer prices frame delivery over
	// lossy edges (DESIGN §13): the NACK retransmission path (the zero
	// value), fountain-FEC, or auto (cheaper of the two per edge). It is
	// stamped onto every published graph snapshot, so changing it reprices
	// the whole DP without re-measuring.
	TransportMode cost.TransportMode
	// MaxTier is the deepest rung of the viewer quality ladder (DESIGN §14)
	// the optimizer may degrade a delivery branch to, and the cap viewer
	// tier hints are clamped against. The zero value (TierFull) keeps the
	// historical uniform full-resolution behaviour.
	MaxTier cost.Tier
}

// SessionManager owns the live sessions of one RICSA service instance. The
// central-management state they share — the measured graph of the emulated
// six-site testbed, the per-edge estimates, and the memoized optimizer —
// lives in one cm.Manager. It is safe for concurrent use by HTTP handlers.
type SessionManager struct {
	cfg ManagerConfig
	cm  *cm.Manager
	clk clock.Clock

	// optFn/optMultiFn are the CM consultation entry points, split out as
	// fields so tests can inject optimizer failures; they default to the
	// shared cm.Manager's memoized optimizers.
	optFn      func(p *pipeline.Pipeline, srcName, dstName string) (*pipeline.VRT, error)
	optMultiFn func(p *pipeline.Pipeline, srcName string, dstNames []string, maxTier cost.Tier) (*pipeline.VRTree, error)

	tel  *telemetry.Collector
	pool *fcp.Pool

	mu       sync.Mutex
	sessions map[string]*ManagedSession
	nextID   uint64
	closed   bool
	// loadFrac is the admitted sessions' summed frame-budget utilization,
	// maintained by Create/Destroy/Shutdown for the admission watermark.
	loadFrac float64
}

// managerProbeSizes is the probe sweep the live service uses: two sizes
// keep a full six-site sweep fast while still separating bandwidth from
// fixed delay.
func managerProbeSizes() []int { return []int{256 << 10, 1 << 20} }

// NewSessionManager builds a manager: it constructs the emulated testbed,
// hands it to a new Central Manager (which actively measures every channel
// — the Section 4.3 probes), and starts the background Prober when a
// ProbeInterval is configured.
func NewSessionManager(cfg ManagerConfig) *SessionManager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 8
	}
	if cfg.ReoptimizeEvery <= 0 {
		cfg.ReoptimizeEvery = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall()
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewCollector(nil, 0)
	}
	pool := cfg.ComputePool
	if pool == nil {
		pool = fcp.Default()
	}
	m := &SessionManager{
		cfg:      cfg,
		clk:      cfg.Clock,
		tel:      cfg.Telemetry,
		pool:     pool,
		sessions: make(map[string]*ManagedSession),
	}
	m.cm = cm.New(managerTestbed(cfg.Seed), cm.Config{
		ProbeSizes:         managerProbeSizes(),
		ProbeInterval:      cfg.ProbeInterval,
		ProbeLinksPerTick:  cfg.ProbeLinksPerTick,
		Tolerance:          cfg.ProbeTolerance,
		DeviationTolerance: cfg.AdaptTolerance,
		DeviationWindow:    cfg.AdaptWindow,
		CacheCapacity:      cfg.CacheCapacity,
		ProbeBudget:        cfg.ProbeBudget,
		Clock:              cfg.Clock,
		Transport:          cfg.TransportMode,
	})
	m.optFn = m.cm.Optimize
	m.optMultiFn = m.cm.OptimizeMultiTiered
	m.cm.Start()
	return m
}

// managerTestbed builds the emulated six-site network the live service's
// CM measures: lossless and mildly cross-trafficked, so probing is cheap
// and deterministic per seed.
func managerTestbed(seed int64) *netsim.Network {
	tb := netsim.DefaultTestbed()
	tb.Loss = 0
	tb.CrossMean = 0.9
	return netsim.Testbed(seed, tb)
}

// CM exposes the shared control loop (status for the web control plane,
// the emulated network for tests that perturb link conditions).
func (m *SessionManager) CM() *cm.Manager { return m.cm }

// Remeasure simulates a network-condition change: the CM adopts a fresh
// testbed epoch and runs a gated full sweep. Estimates carry over by edge,
// so a remeasure that finds the same conditions keeps the graph's Rev —
// sessions' next consultations still hit the cache — while genuine drift
// re-stamps the graph and forces exactly one DP re-run per distinct
// instance.
func (m *SessionManager) Remeasure(seed int64) {
	// The adopted network is always the same six-site topology, so
	// AdoptNetwork cannot fail here.
	_ = m.cm.AdoptNetwork(managerTestbed(seed))
}

// Graph returns the CM's current measured graph (shared, read-only).
func (m *SessionManager) Graph() *pipeline.Graph { return m.cm.Graph() }

// CacheStats reports the shared optimizer cache counters.
func (m *SessionManager) CacheStats() pipeline.CacheStats { return m.cm.CacheStats() }

// Telemetry exposes the service's collector — counters for the web
// layer's /metrics exposition and the scenario engine's ground-truth
// reconciliation.
func (m *SessionManager) Telemetry() *telemetry.Collector { return m.tel }

// LoadFraction reports the admitted sessions' summed frame-budget
// utilization — the quantity the admission watermark compares against
// FrameBudget.
func (m *SessionManager) LoadFraction() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loadFrac
}

// FrameBudget reports the configured admission watermark (0 = disabled).
func (m *SessionManager) FrameBudget() float64 { return m.cfg.FrameBudget }

// optimize is the CM entry point single-viewer sessions call: memoized DP
// over the current graph from the named data source to the named client.
func (m *SessionManager) optimize(p *pipeline.Pipeline, srcName, dstName string) (*pipeline.VRT, error) {
	return m.optFn(p, srcName, dstName)
}

// optimizeMulti is the fan-out entry point: one shared tree from the data
// source to every viewer host of a multi-viewer session, with the
// configured tier budget — the optimizer may degrade individual branches
// down the quality ladder when delivery gain beats the fidelity penalty.
func (m *SessionManager) optimizeMulti(p *pipeline.Pipeline, srcName string, dstNames []string) (*pipeline.VRTree, error) {
	return m.optMultiFn(p, srcName, dstNames, m.cfg.MaxTier)
}

// MaxTier reports the configured tier budget.
func (m *SessionManager) MaxTier() cost.Tier { return m.cfg.MaxTier }

// NodeNames returns the measured hosts a Request may name as endpoints.
func (m *SessionManager) NodeNames() []string { return m.cm.NodeNames() }

// Create starts a new live session for the request and returns it. The
// session's lifecycle goroutine runs until Destroy or Shutdown.
func (m *SessionManager) Create(req Request) (*ManagedSession, error) {
	return m.CreateTuned(req, 0, 0, 0)
}

// CreateTuned is Create with explicit pacing and frame geometry applied
// before the lifecycle goroutine starts (zero values keep the defaults:
// 200ms frames at 512x512).
func (m *SessionManager) CreateTuned(req Request, framePeriod time.Duration, width, height int) (*ManagedSession, error) {
	s, err := newManagedSession(m, req)
	if err != nil {
		return nil, err
	}
	if framePeriod > 0 {
		s.FramePeriod = framePeriod
	}
	if width > 0 {
		s.Width = width
	}
	if height > 0 {
		s.Height = height
	}
	// The session's watermark charge: the fraction of one core its frame
	// production nominally occupies, fixed here at admission so the
	// decision never depends on later probe or load state.
	var util float64
	if m.cfg.FrameBudget > 0 && m.cfg.FrameCost > 0 {
		util = m.cfg.FrameCost.Seconds() / s.FramePeriod.Seconds()
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.tel.SessionsRejectedLimit.Add(1)
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d live)", ErrSessionLimit, m.cfg.MaxSessions)
	}
	if util > 0 && m.loadFrac+util > m.cfg.FrameBudget+1e-9 {
		m.tel.SessionsRejectedOverload.Add(1)
		load := m.loadFrac
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: load %.3f + %.3f exceeds frame budget %.3f",
			ErrOverloaded, load, util, m.cfg.FrameBudget)
	}
	m.loadFrac += util
	s.util = util
	m.tel.SessionsAdmitted.Add(1)
	m.nextID++
	s.ID = fmt.Sprintf("s%d", m.nextID)
	m.sessions[s.ID] = s
	m.mu.Unlock()
	go s.run()
	return s, nil
}

// Get returns the live session with the given id.
func (m *SessionManager) Get(id string) (*ManagedSession, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// List returns the live sessions ordered by id.
func (m *SessionManager) List() []*ManagedSession {
	m.mu.Lock()
	out := make([]*ManagedSession, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len reports the number of live sessions.
func (m *SessionManager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Destroy stops the session's lifecycle goroutine, waits for it to exit,
// and frees its slot.
func (m *SessionManager) Destroy(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	if ok {
		m.loadFrac -= s.util
		if m.loadFrac < 0 {
			m.loadFrac = 0
		}
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	s.halt()
	m.tel.SessionsDestroyed.Add(1)
	return nil
}

// Shutdown gracefully stops every session and the background Prober,
// refusing new Creates. It returns when all lifecycle goroutines have
// exited or ctx ends.
func (m *SessionManager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	victims := make([]*ManagedSession, 0, len(m.sessions))
	for id, s := range m.sessions {
		victims = append(victims, s)
		delete(m.sessions, id)
	}
	m.loadFrac = 0
	m.mu.Unlock()
	m.tel.SessionsDestroyed.Add(uint64(len(victims)))

	m.cm.Stop()

	done := make(chan struct{})
	go func() {
		for _, s := range victims {
			s.halt()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ManagedSession is one live monitored simulation owned by a
// SessionManager: a wall-clock simulate→consult-CM→render→publish loop
// that any number of web viewers can attach to. It satisfies the webui
// FrameSource contract (WaitFrame/Steer/Status) structurally.
type ManagedSession struct {
	ID  string
	mgr *SessionManager
	sim *simengine.Sim

	// FramePeriod is the base pacing of the loop — the installed mapping's
	// predicted delivery delay is charged on top per frame (see period).
	// Width/Height size rendered frames. Fixed at creation (CreateTuned).
	FramePeriod time.Duration
	Width       int
	Height      int

	mu      sync.Mutex
	req     Request
	seq     uint64 // frames produced (monotone, rendered or not)
	png     []byte // last rendered frame
	pngSeq  uint64 // the frame seq png corresponds to
	renders int    // RenderDataset invocations (lazy rendering skips idle frames)
	// tierPNG/tierSeq publish the latest encoded frame per reduced tier
	// (DESIGN §14); index TierFull is unused — the full frame stays in png.
	// A tier is encoded only while demanded, by a tracked viewer at that
	// tier or a delivery branch the optimizer degraded to it, so the slots
	// can lag the full frame; viewers fall back to the full frame then.
	tierPNG [cost.NumTiers][]byte
	tierSeq [cost.NumTiers]uint64
	// tierDemand counts tracked viewers per negotiated tier.
	tierDemand [cost.NumTiers]int
	// deltaKey retains the delta tier's newest keyframe and the frame seq
	// it was published at. Region patches are keyframe-relative, so the
	// retained key plus the latest patch reconstructs the current frame: a
	// delta viewer joining mid-stream is served the key first, with no
	// forced re-key.
	deltaKey    []byte
	deltaKeySeq uint64
	// latest is the newest unrendered dataset snapshot (with the request it
	// was produced under), kept so a viewer arriving after idle frames can
	// have the current frame rendered on demand. lazyTarget is the frame
	// seq a WaitFrame caller is currently rendering (0 = none): on-demand
	// rendering is single-flight, so a poll burst against an idle session
	// pays one render, not one per waiter.
	latest     *grid.ScalarField
	latestReq  Request
	lazyTarget uint64
	notify     chan struct{}
	viewers    int
	// tracked holds the Viewers subject to the slow-consumer eviction
	// policy (AttachViewer); presence-only Attach viewers are counted in
	// viewers but not tracked.
	tracked map[*Viewer]struct{}
	// util is the session's frame-budget utilization charge, fixed at
	// admission; Destroy/Shutdown credit it back to the manager.
	util float64
	// lateNS is how far past its scheduled cadence the next frame will
	// start (the previous frame overran its period). Written by nextDelay
	// and read by produce on the lifecycle goroutine only.
	lateNS    int64
	vrt       *pipeline.VRT    // installed mapping (single-viewer mode)
	tree      *pipeline.VRTree // installed routing tree (multi-viewer mode)
	optErr    error
	renderErr error
	reopts    int    // successful CM consultations
	adapts    int    // Adapter-forced consultations among them
	sinceOpt  int    // frames since the last successful consultation
	pipeKey   uint64 // fingerprint of the pipeline last sent to the CM
	pipe      *pipeline.Pipeline
	// pipeGen counts cost-model invalidations (isovalue steers). A CM
	// consultation snapshots it and discards its result if an
	// invalidation landed while the optimizer ran unlocked, so a stale
	// pipeline can never be installed over a fresher reset.
	pipeGen uint64
	adapter *cm.Adapter
	// place/places cache the installed mapping's placement node names
	// (single-viewer path, or one per tree branch) so the per-frame monitor
	// re-pricing does not rebuild them from the VRT every frame.
	place  []string
	places [][]string

	// scratch is the producer-owned frame data plane: mesh arena,
	// framebuffer, z-buffer, projection buffer, and PNG encode buffer, all
	// reused across frames. Only produce touches it (lazy renders in
	// WaitFrame run concurrently with the producer, so they allocate their
	// own buffers); published PNG bytes are always copied out of it.
	scratch viz.FrameScratch
	// tierEnc/tierBuf are the producer-owned per-tier encoders and encode
	// buffers (downscale scratch, delta reference canvas, PNG buffers),
	// reused across frames like scratch; published bytes are copied out.
	tierEnc [cost.NumTiers]viz.TierEncoder
	tierBuf [cost.NumTiers]bytes.Buffer
	// fieldScratch is the producer-owned dataset snapshot buffer. Ownership
	// transfers to `latest` when an idle frame stashes the snapshot for
	// on-demand rendering, and is reclaimed when a snapshot is superseded
	// with no lazy render in flight.
	fieldScratch *grid.ScalarField
	// queue is the session's lane into the shared frame-compute pool; the
	// sim's sweeps and the ROI extraction both submit through it, so its
	// accumulated caller stall is the frame's pool-wait time. roi is the
	// producer-owned dirty-block mesh cache behind RenderDatasetROI.
	queue *fcp.Queue
	roi   viz.BlockMeshCache

	stop chan struct{}
	done chan struct{}
}

// newManagedSession validates the request — including its endpoints, which
// must name hosts of the CM's measured graph — and instantiates the
// simulator; the caller registers the session and starts its goroutine.
func newManagedSession(m *SessionManager, req Request) (*ManagedSession, error) {
	switch req.Method {
	case "isosurface", "raycast", "streamline", "":
	default:
		return nil, fmt.Errorf("steering: unknown method %q", req.Method)
	}
	g := m.cm.Graph()
	if g.NodeIndex(req.SourceNode) < 0 {
		return nil, fmt.Errorf("steering: unknown source node %q (measured hosts: %v)",
			req.SourceNode, m.cm.NodeNames())
	}
	for _, dst := range req.Destinations() {
		if g.NodeIndex(dst) < 0 {
			return nil, fmt.Errorf("steering: unknown client node %q (measured hosts: %v)",
				dst, m.cm.NodeNames())
		}
	}
	var sim *simengine.Sim
	switch req.Simulator {
	case "sod":
		sim = simengine.NewSod(req.NX, req.NY, req.NZ, simengine.DefaultSodParams())
	case "bowshock":
		sim = simengine.NewBowShock(req.NX, req.NY, req.NZ, simengine.DefaultBowShockParams())
	default:
		return nil, fmt.Errorf("steering: unknown simulator %q", req.Simulator)
	}
	if req.StepsPerFrame <= 0 {
		req.StepsPerFrame = 1
	}
	queue := m.pool.NewQueue()
	sim.SetQueue(queue)
	return &ManagedSession{
		mgr:         m,
		sim:         sim,
		req:         req,
		notify:      make(chan struct{}),
		tracked:     make(map[*Viewer]struct{}),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		FramePeriod: 200 * time.Millisecond,
		Width:       512,
		Height:      512,
		adapter:     m.cm.NewAdapter(),
		queue:       queue,
	}, nil
}

// run is the session's lifecycle goroutine. Pacing is re-derived per frame:
// the installed VRT's predicted end-to-end delay is charged on top of the
// base frame period, so a session whose mapping delivers slowly publishes
// slowly — the paper's "the simulation does not proceed until the image
// from the last time step is delivered", with the emulated delivery time
// standing in for physical transfer.
func (s *ManagedSession) run() {
	defer close(s.done)
	clk := s.mgr.clk
	start := clk.Now()
	s.produce()
	timer := clk.NewTimer(s.nextDelay(clk.Since(start)))
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-timer.C():
			start = clk.Now()
			s.produce()
			timer.Reset(s.nextDelay(clk.Since(start)))
		}
	}
}

// nextDelay converts the effective frame period into the timer delay for
// the next frame, discounting the wall time produce itself consumed — the
// loop's cadence is the period, not period plus sim/render time. When
// produce overran the whole period the next frame starts immediately and
// the overrun is remembered as that frame's telemetry queue wait.
func (s *ManagedSession) nextDelay(elapsed time.Duration) time.Duration {
	d := s.period() - elapsed
	if d < 0 {
		s.lateNS = int64(-d)
		return 0
	}
	s.lateNS = 0
	return d
}

// period is the effective frame period: the base pacing plus the installed
// mapping's predicted delivery delay — in multi-viewer mode the tree's
// slowest branch, since the loop must not advance before every viewer has
// the previous image.
func (s *ManagedSession) period() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.FramePeriod
	switch {
	case s.tree != nil && s.tree.Delay > 0:
		p += time.Duration(s.tree.Delay * float64(time.Second))
	case s.vrt != nil && s.vrt.Delay > 0:
		p += time.Duration(s.vrt.Delay * float64(time.Second))
	}
	return p
}

// halt stops the lifecycle goroutine and waits for it.
func (s *ManagedSession) halt() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

func (s *ManagedSession) snapshot(req Request) *grid.ScalarField {
	return s.snapshotInto(nil, req)
}

func (s *ManagedSession) snapshotInto(dst *grid.ScalarField, req Request) *grid.ScalarField {
	if req.Variable == "pressure" {
		return s.sim.PressureInto(dst)
	}
	return s.sim.DensityInto(dst)
}

// produce advances the simulation one frame, consults the CM when due (on
// schedule, or early when the Adapter reports the installed mapping has
// drifted), and publishes the frame. Rendering is lazy: with no attached
// viewer the render/PNG-encode step — the hot path at -max-sessions scale —
// is skipped, the sequence number still advances, and the dataset snapshot
// is kept so WaitFrame can render the current frame on demand.
//
//ricsa:noalloc
func (s *ManagedSession) produce() {
	produceStart := telemetry.StartStage()
	rec := telemetry.FrameRecord{QueueWaitNS: s.lateNS}

	s.mu.Lock()
	req := s.req
	due := s.pipe == nil || s.sinceOpt >= s.mgr.cfg.ReoptimizeEvery
	pipe, vrt, tree := s.pipe, s.vrt, s.tree
	// Take the producer's snapshot buffer (nil when the previous frame's
	// snapshot is stashed in latest and may still be read by a lazy render).
	field := s.fieldScratch
	s.fieldScratch = nil
	s.mu.Unlock()

	simStart := telemetry.StartStage()
	for i := 0; i < req.StepsPerFrame; i++ {
		s.sim.Step()
	}
	field = s.snapshotInto(field, req)
	rec.SimNS = simStart.ElapsedNS()

	if !due && pipe != nil && (vrt != nil || tree != nil) && s.monitor(pipe, vrt, tree) {
		due = true
	}
	if due {
		s.consultCM(field, req)
	}

	s.mu.Lock()
	wantRender := s.viewers > 0
	// Tier demand for this frame: tracked viewers' negotiated tiers plus
	// every reduced tier the installed tree's branches were degraded to.
	// The full frame is always encoded when rendering at all.
	var wantTier [cost.NumTiers]bool
	for t := 1; t < cost.NumTiers; t++ {
		wantTier[t] = s.tierDemand[t] > 0
	}
	if s.tree != nil {
		for i := range s.tree.Branches {
			if bt := s.tree.Branches[i].Tier; bt != cost.TierFull && int(bt) < cost.NumTiers {
				wantTier[bt] = true
			}
		}
	}
	s.mu.Unlock()

	var png []byte
	var tierOut [cost.NumTiers][]byte
	deltaKeyed := false
	var err error
	if wantRender {
		var img *viz.Image
		renderStart := telemetry.StartStage()
		img, err = RenderDatasetROI(&s.scratch, &s.roi, s.queue, field, req, s.Width, s.Height)
		rec.RenderNS = renderStart.ElapsedNS()
		rec.BlocksReused, rec.BlocksExtracted = s.roi.TakeStats()
		if err == nil {
			// Encode into the reusable scratch buffer, then copy the bytes
			// out: published frames must be immutable, so only the encode
			// buffer is pooled, never the slice viewers hold.
			encodeStart := telemetry.StartStage()
			s.scratch.Enc.Reset()
			if err = img.EncodePNG(&s.scratch.Enc); err == nil {
				png = append([]byte(nil), s.scratch.Enc.Bytes()...)
				// One extra encode per *distinct* demanded reduced tier,
				// into producer-owned reused encoders; a tier that fails to
				// encode is simply not published this frame and its viewers
				// fall back to the full frame.
				for t := cost.Tier(1); int(t) < cost.NumTiers; t++ {
					if !wantTier[t] {
						continue
					}
					buf := &s.tierBuf[t]
					var terr error
					switch t {
					case cost.TierHalf:
						terr = s.tierEnc[t].EncodeDownscaled(img, 2, buf)
					case cost.TierQuarter:
						terr = s.tierEnc[t].EncodeDownscaled(img, 4, buf)
					case cost.TierDelta:
						var kind viz.DeltaKind
						kind, terr = s.tierEnc[t].EncodeDelta(img, false, buf)
						deltaKeyed = terr == nil && kind == viz.DeltaKey
					}
					if terr == nil {
						tierOut[t] = append([]byte(nil), buf.Bytes()...)
					}
				}
			}
			rec.EncodeNS = encodeStart.ElapsedNS()
		}
	}

	published := false
	s.mu.Lock()
	s.sinceOpt++
	s.renderErr = err
	switch {
	case !wantRender:
		// Idle frame: advance the sequence and stash the snapshot for
		// on-demand rendering, but do no pixel work. If this supersedes a
		// stashed snapshot no lazy render holds, recycle its buffer.
		s.seq++
		if s.latest != nil && s.lazyTarget == 0 {
			s.fieldScratch = s.latest
		}
		s.latest = field
		s.latestReq = req
		published = true
		close(s.notify)
		s.notify = make(chan struct{})
	case err == nil:
		s.seq++
		s.png = png
		s.pngSeq = s.seq
		s.renders++
		for t := 1; t < cost.NumTiers; t++ {
			if tierOut[t] != nil {
				s.tierPNG[t] = tierOut[t]
				s.tierSeq[t] = s.seq
			}
		}
		if deltaKeyed {
			s.deltaKey = tierOut[cost.TierDelta]
			s.deltaKeySeq = s.seq
		}
		s.latest = nil
		// The render consumed the snapshot synchronously; reclaim it.
		s.fieldScratch = field
		published = true
		rec.Rendered = true
		close(s.notify)
		s.notify = make(chan struct{})
	default:
		// Render failed: the snapshot is unpublished, so reclaim it.
		s.fieldScratch = field
	}
	if published {
		rec.Session = s.ID
		rec.Seq = s.seq
		s.fillDeliveryLocked(&rec)
		s.evictSlowLocked()
	}
	s.mu.Unlock()

	if published {
		if rec.Rendered {
			s.mgr.tel.TierEncodes[cost.TierFull].Add(1)
			for t := 1; t < cost.NumTiers; t++ {
				if tierOut[t] != nil {
					s.mgr.tel.TierEncodes[t].Add(1)
				}
			}
		}
		rec.ProduceNS = produceStart.ElapsedNS()
		// The queue accumulated the producer's stall behind other sessions'
		// pool batches across this frame's sim sweeps and extraction.
		rec.PoolWaitNS = s.queue.TakeWait()
		s.mgr.tel.RecordFrame(&rec)
	}
}

// fillDeliveryLocked copies the installed mapping's per-branch predicted
// delivery delays into the frame record (the slowest overflow branch
// lands in the last slot when the tree fans out past MaxBranches).
func (s *ManagedSession) fillDeliveryLocked(rec *telemetry.FrameRecord) {
	switch {
	case s.tree != nil:
		for i := range s.tree.Branches {
			ns := int64(s.tree.Branches[i].Delay * float64(time.Second))
			if i < telemetry.MaxBranches {
				rec.Delivery[i] = ns
				rec.Branches = i + 1
			} else if ns > rec.Delivery[telemetry.MaxBranches-1] {
				rec.Delivery[telemetry.MaxBranches-1] = ns
			}
		}
	case s.vrt != nil:
		rec.Delivery[0] = int64(s.vrt.Delay * float64(time.Second))
		rec.Branches = 1
	}
}

// evictSlowLocked applies the slow-consumer policy at publish time: any
// tracked viewer more than MaxViewerLag frames behind the sequence just
// published is evicted — its Wait/Poll return ErrViewerEvicted and its
// fan-out slot frees — instead of the session buffering for it without
// bound. Parked waiters are woken by the publish's notify broadcast.
func (s *ManagedSession) evictSlowLocked() {
	maxLag := s.mgr.cfg.MaxViewerLag
	if maxLag <= 0 || len(s.tracked) == 0 {
		return
	}
	for v := range s.tracked {
		if s.seq-v.delivered > uint64(maxLag) {
			v.evicted = true
			delete(s.tracked, v)
			s.viewers--
			s.tierDemand[v.tier]--
			s.mgr.tel.ViewersEvicted.Add(1)
		}
	}
}

// monitor is the session's monitor→adapt step: it re-evaluates the
// installed placement under the CM's *current* graph (which the Prober
// keeps fresh) and feeds the result to the Adapter. In multi-viewer mode
// every branch of the tree is re-priced and the slowest governs, matching
// what period charges. A placement whose re-predicted delay deviates from
// its at-install prediction for AdaptWindow consecutive frames forces an
// early consultation.
func (s *ManagedSession) monitor(pipe *pipeline.Pipeline, vrt *pipeline.VRT, tree *pipeline.VRTree) bool {
	s.mu.Lock()
	src := s.req.SourceNode
	// Placements are cached at install time so this per-frame re-pricing
	// does not rebuild node-name slices from the VRT every frame.
	place, places := s.place, s.places
	s.mu.Unlock()
	var observed, predicted float64
	if tree != nil {
		predicted = tree.Delay
		for _, pl := range places {
			d, err := s.mgr.cm.PredictPlacement(pipe, src, pl)
			if err != nil {
				d = math.Inf(1)
			}
			if d > observed {
				observed = d
			}
		}
	} else {
		predicted = vrt.Delay
		var err error
		observed, err = s.mgr.cm.PredictPlacement(pipe, src, place)
		if err != nil {
			// The placement no longer evaluates (a topology change): treat
			// as an unbounded deviation so the window logic still applies.
			observed = math.Inf(1)
		}
	}
	if !s.adapter.Observe(observed, predicted) {
		return false
	}
	s.mu.Lock()
	s.adapts++
	s.mu.Unlock()
	return true
}

// consultCM rebuilds the session's pipeline model when its cost inputs
// changed (a new isovalue) and asks the CM for a mapping between the
// request's endpoints: a path to the single ClientNode, or a shared
// routing tree over ClientNodes in multi-viewer mode. Unchanged (graph,
// pipeline, endpoints) instances are answered from the shared cache. A
// failed consultation keeps the session past due so the next frame retries
// immediately, and does not count as a re-optimization.
func (s *ManagedSession) consultCM(field *grid.ScalarField, req Request) {
	s.mu.Lock()
	pipe := s.pipe
	gen := s.pipeGen
	s.mu.Unlock()

	if pipe == nil {
		st := AnalyzeDataset(field, req.Simulator, req.BlockEdge, req.Isovalue)
		pipe = BuildIsoPipeline(st)
	}
	var vrt *pipeline.VRT
	var tree *pipeline.VRTree
	var err error
	if len(req.ClientNodes) > 0 {
		tree, err = s.mgr.optimizeMulti(pipe, req.SourceNode, req.ClientNodes)
	} else {
		vrt, err = s.mgr.optimize(pipe, req.SourceNode, req.ClientNode)
	}

	s.mu.Lock()
	if s.pipeGen != gen {
		// A steer invalidated the cost model while the optimizer ran:
		// drop this result (leaving sinceOpt past due) so the next frame
		// re-analyzes under the fresh parameters instead of installing a
		// stale pipeline over the reset.
		s.mu.Unlock()
		return
	}
	s.pipe = pipe
	s.pipeKey = pipe.Fingerprint()
	s.optErr = err
	if err != nil {
		// Keep the prior mapping and stay past due: the next frame retries
		// instead of waiting out a full ReoptimizeEvery schedule, and the
		// failure is not a re-optimization.
		s.sinceOpt = s.mgr.cfg.ReoptimizeEvery
		s.mu.Unlock()
		return
	}
	s.vrt, s.tree = vrt, tree
	s.place, s.places = nil, nil
	if tree != nil {
		s.places = make([][]string, len(tree.Branches))
		for i := range tree.Branches {
			s.places[i] = tree.BranchPlacement(i)
		}
	} else {
		s.place = PlacementFromVRT(vrt)
	}
	s.reopts++
	s.sinceOpt = 0
	s.mu.Unlock()
	s.adapter.Reset()
}

// Attach registers a viewer and returns its detach function. The hub calls
// this once per watching client so Status can report fan-out.
func (s *ManagedSession) Attach() (detach func()) {
	s.mu.Lock()
	s.viewers++
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.viewers--
			s.mu.Unlock()
		})
	}
}

// WaitFrame blocks until a frame with sequence > since exists (or ctx
// ends). Any number of viewers may wait concurrently. If the newest frame
// was produced while no viewer was attached (lazy rendering skipped it),
// WaitFrame renders it on demand from the stashed dataset snapshot.
func (s *ManagedSession) WaitFrame(ctx context.Context, since uint64) (uint64, []byte, error) {
	return s.waitFrame(ctx, since, nil)
}

// waitFrame is the shared long-poll core. With a tracked viewer it also
// enforces the eviction contract — a parked waiter is woken by the
// publish broadcast of the frame whose eviction scan removed it and
// returns ErrViewerEvicted — and records frame delivery for the viewer's
// lag accounting.
func (s *ManagedSession) waitFrame(ctx context.Context, since uint64, v *Viewer) (uint64, []byte, error) {
	for {
		s.mu.Lock()
		if v != nil && v.evicted {
			s.mu.Unlock()
			return 0, nil, ErrViewerEvicted
		}
		// A delta viewer that has not seen the current keyframe lineage is
		// served the retained keyframe before anything else — region patches
		// are keyframe-relative, so the key plus the latest patch is a
		// complete reconstruction. The since guard keeps stateless long-poll
		// clients (one fresh Viewer per HTTP request) from being re-served a
		// key their cursor already covers.
		if v != nil && v.tier == cost.TierDelta && s.deltaKey != nil &&
			v.keySeq != s.deltaKeySeq && s.deltaKeySeq > since {
			v.keySeq = s.deltaKeySeq
			if s.deltaKeySeq > v.delivered {
				v.delivered = s.deltaKeySeq
			}
			frame := s.deltaKey
			s.mgr.tel.TierFramesSent[v.tier].Add(1)
			s.mgr.tel.TierBytesSent[v.tier].Add(uint64(len(frame)))
			s.mu.Unlock()
			return s.deltaKeySeq, frame, nil
		}
		// A reduced-tier viewer blocks until its own tier's frame is at
		// least as fresh as the full frame: the viewer's attach is itself
		// the demand, so the next produced frame encodes the tier. Unlike
		// the non-blocking Poll there is no full-frame fallback here — a
		// blocking wait can afford one frame period, and the reply then
		// always carries the negotiated representation.
		if v != nil && v.tier != cost.TierFull {
			if ts := s.tierSeq[v.tier]; ts > since && ts >= s.pngSeq && s.tierPNG[v.tier] != nil {
				frame := s.tierPNG[v.tier]
				if ts > v.delivered {
					v.delivered = ts
				}
				s.mgr.tel.TierFramesSent[v.tier].Add(1)
				s.mgr.tel.TierBytesSent[v.tier].Add(uint64(len(frame)))
				s.mu.Unlock()
				return ts, frame, nil
			}
		} else if s.pngSeq > since && s.png != nil {
			seq, png := s.pngSeq, s.png
			if v != nil && seq > v.delivered {
				v.delivered = seq
			}
			if v != nil {
				s.mgr.tel.TierFramesSent[cost.TierFull].Add(1)
				s.mgr.tel.TierBytesSent[cost.TierFull].Add(uint64(len(png)))
			}
			s.mu.Unlock()
			return seq, png, nil
		}
		if s.seq > since && s.latest != nil && s.lazyTarget != s.seq {
			// Lazy render: the loop produced frames while idle. Claim the
			// current frame (single-flight: concurrent waiters see the
			// claim and wait on notify instead of rendering redundantly)
			// and render outside the lock; a racing producer may publish a
			// newer frame meanwhile, in which case this result is simply
			// superseded.
			field, req := s.latest, s.latestReq
			target := s.seq
			s.lazyTarget = target
			w, h := s.Width, s.Height
			s.mu.Unlock()
			img, err := RenderDataset(field, req, w, h)
			var png []byte
			if err == nil {
				png, err = img.PNG()
			}
			s.mu.Lock()
			if s.lazyTarget == target {
				s.lazyTarget = 0
			}
			if err != nil {
				s.renderErr = err
				// Release the herd so another waiter may retry.
				close(s.notify)
				s.notify = make(chan struct{})
				s.mu.Unlock()
				return 0, nil, err
			}
			if target > s.pngSeq {
				s.png = png
				s.pngSeq = target
				s.renders++
				s.mgr.tel.TierEncodes[cost.TierFull].Add(1)
				if s.seq == target {
					s.latest = nil
				}
			}
			// Wake waiters blocked behind the single-flight claim.
			close(s.notify)
			s.notify = make(chan struct{})
			s.mu.Unlock()
			continue
		}
		ch := s.notify
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-s.stop:
			return 0, nil, fmt.Errorf("%w: session destroyed", ErrNoSession)
		case <-ch:
		}
	}
}

// Steer applies named steering parameters: physics keys go to the
// simulator at its next step boundary; view keys retarget the renderer. A
// changed isovalue invalidates the pipeline cost model, forcing a CM
// consultation before the next frame. Application is atomic: an unknown
// key rejects the whole request with nothing applied.
func (s *ManagedSession) Steer(params map[string]float64) error {
	steerSim := false
	for k := range params {
		switch k {
		case "isovalue", "yaw", "pitch", "zoom":
		default:
			if !simengine.IsParamKey(k) {
				return fmt.Errorf("steering: unknown steering parameter %q", k)
			}
			steerSim = true
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range params {
		switch k {
		case "isovalue":
			if s.req.Isovalue != float32(v) {
				s.req.Isovalue = float32(v)
				// Cost model changed: rebuild and re-optimize next frame.
				s.pipe = nil
				s.pipeKey = 0
				s.pipeGen++
			}
		case "yaw":
			s.req.Camera.Yaw = v
		case "pitch":
			s.req.Camera.Pitch = v
		case "zoom":
			s.req.Camera.Zoom = v
		}
	}
	if steerSim {
		s.sim.SteerByName(params)
	}
	return nil
}

// Status reports session state for the GUI sidebar and the service's
// sessions listing.
func (s *ManagedSession) Status() map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.sim.Params()
	st := map[string]any{
		"id":              s.ID,
		"simulator":       s.req.Simulator,
		"variable":        s.req.Variable,
		"method":          s.req.Method,
		"source_node":     s.req.SourceNode,
		"client_nodes":    s.req.Destinations(),
		"cycle":           s.sim.Cycle(),
		"sim_time":        s.sim.Time(),
		"frame_seq":       s.seq,
		"viewers":         s.viewers,
		"renders":         s.renders,
		"isovalue":        s.req.Isovalue,
		"left_pressure":   p.LeftPressure,
		"left_density":    p.LeftDensity,
		"reoptimizations": s.reopts,
		"adaptations":     s.adapts,
		"max_tier":        s.mgr.cfg.MaxTier.String(),
	}
	if s.tree != nil {
		st["vrt_path"] = s.tree.SharedPath()
		st["vrt_delay_s"] = s.tree.Delay
		st["tree_shared_delay_s"] = s.tree.SharedDelay
		branches := make([]map[string]any, len(s.tree.Branches))
		for i, b := range s.tree.Branches {
			branches[i] = map[string]any{
				"dst": b.Dst, "path": s.tree.BranchPath(i), "delay_s": b.Delay,
				"tier": b.Tier.String(),
			}
		}
		st["tree_branches"] = branches
	} else if s.vrt != nil {
		st["vrt_path"] = s.vrt.Path()
		st["vrt_delay_s"] = s.vrt.Delay
	}
	if s.optErr != nil {
		st["optimize_error"] = s.optErr.Error()
	}
	if s.renderErr != nil {
		st["render_error"] = s.renderErr.Error()
	}
	return st
}

// Request returns a copy of the session's current request.
func (s *ManagedSession) Request() Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.req
}

// VRT returns the session's current mapping (may be nil before the first
// CM consultation completes, and always nil in multi-viewer mode).
func (s *ManagedSession) VRT() *pipeline.VRT {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vrt.Clone()
}

// Tree returns the session's current routing tree (nil before the first CM
// consultation completes, and always nil in single-viewer mode).
func (s *ManagedSession) Tree() *pipeline.VRTree {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.Clone()
}

// Mapping returns the installed mapping's cost inputs for external
// re-pricing — the scenario engine's frame-delay-vs-prediction invariant
// re-evaluates placements under both the CM's estimate graph and the
// emulated network's ground truth. It reports the pipeline model, the
// source node, one placement per delivery branch (a single-viewer session
// has exactly one), and the at-install predicted delay. ok is false before
// the first successful consultation. The returned pipeline and placements
// are live references treated as immutable by all holders.
func (s *ManagedSession) Mapping() (pipe *pipeline.Pipeline, src string, placements [][]string, predicted float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pipe == nil {
		return nil, "", nil, 0, false
	}
	switch {
	case s.tree != nil:
		return s.pipe, s.req.SourceNode, s.places, s.tree.Delay, true
	case s.vrt != nil:
		return s.pipe, s.req.SourceNode, [][]string{s.place}, s.vrt.Delay, true
	}
	return nil, "", nil, 0, false
}

// Viewers reports the currently attached viewer count (tracked and
// presence-only).
func (s *ManagedSession) Viewers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewers
}

// Renders reports how many frames were actually rendered; with lazy
// rendering this lags the frame sequence whenever no viewer is attached.
func (s *ManagedSession) Renders() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.renders
}

// Reoptimizations reports how many times the session consulted the CM.
func (s *ManagedSession) Reoptimizations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reopts
}

// Adaptations reports how many consultations the Adapter forced early.
func (s *ManagedSession) Adaptations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adapts
}
