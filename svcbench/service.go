package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/steering"
	"ricsa/internal/telemetry"
	"ricsa/internal/webui"
)

// managerConfig mirrors ricsa-server's flag defaults, with the workload's
// tier budget and eviction threshold.
func managerConfig(w *workload, sink telemetry.Sink) steering.ManagerConfig {
	return steering.ManagerConfig{
		MaxSessions:       16,
		ReoptimizeEvery:   8,
		ProbeInterval:     5 * time.Second,
		ProbeLinksPerTick: 2,
		ProbeTolerance:    0.05,
		AdaptTolerance:    0.5,
		AdaptWindow:       2,
		MaxViewerLag:      w.MaxViewerLag,
		MaxTier:           w.MaxTier,
		// One record per flush: the sink stamps each frame as it lands.
		Telemetry: telemetry.NewCollector(sink, 1),
	}
}

// oneConnClient is an HTTP client held to a single connection, so the
// benchmark never opens more connections than it states.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// service is one live instance of the system under test plus the
// benchmark's clients attached to it.
type service struct {
	w    *workload
	rec  *recorder
	tr   *tracer
	mgr  *steering.SessionManager
	srv  *http.Server
	base string
	// ctl carries steers, session churn, status and idle polls; view
	// carries the one HTTP long-poll viewer.
	ctl, view *http.Client
	ids       []string
	viewers   []*viewer
	log       *opLog

	stopViewers context.CancelFunc
	viewerWG    sync.WaitGroup
	serveDone   chan struct{}
}

// opLog counts operations and keeps the first failure messages.
type opLog struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
	// httpErrs stamps each failed HTTP operation.
	httpErrs []int64
}

func (l *opLog) ok() {
	l.mu.Lock()
	l.attempted++
	l.mu.Unlock()
}

func (l *opLog) fail(format string, args ...any) {
	l.mu.Lock()
	l.attempted++
	l.failed++
	if len(l.msgs) < 20 {
		l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// failHTTP records a failed HTTP operation at benchmark time at.
func (l *opLog) failHTTP(at int64, format string, args ...any) {
	l.fail(format, args...)
	l.mu.Lock()
	l.httpErrs = append(l.httpErrs, at)
	l.mu.Unlock()
}

func (l *opLog) httpErrorsIn(ph *phase) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, at := range l.httpErrs {
		if at >= ph.Start && at < ph.DrainEnd {
			n++
		}
	}
	return n
}

// check records a check that is not itself an operation: it adds a
// failure without adding an attempt.
func (l *opLog) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	l.mu.Lock()
	l.failed++
	if len(l.msgs) < 20 {
		l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// startService builds the service, creates the workload's sessions over
// HTTP and attaches its viewers, returning once every initial viewer holds
// its first frame. The elapsed time is one setup_s sample.
func startService(w *workload, sched *schedule, seed int64, tr *tracer) (*service, time.Duration, error) {
	t0 := time.Now()
	rec := newRecorder()
	s := &service{
		w: w, rec: rec, tr: tr, log: &opLog{},
		ctl: oneConnClient(), view: oneConnClient(),
		serveDone: make(chan struct{}),
	}
	s.mgr = steering.NewSessionManager(managerConfig(w, rec))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.mgr.Shutdown(context.Background())
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: webui.NewHub(s.mgr).Handler()}
	go func() {
		defer close(s.serveDone)
		_ = s.srv.Serve(ln) // returns ErrServerClosed at shutdown
	}()

	for _, spec := range w.Sessions {
		id, err := s.create(spec.Create)
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("create %s session: %w", spec.Role, err)
		}
		s.ids = append(s.ids, id)
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.stopViewers = cancel
	var first sync.WaitGroup
	for i, spec := range w.Sessions {
		sess, ok := s.mgr.Get(s.ids[i])
		if !ok {
			s.close()
			return nil, 0, fmt.Errorf("session %s vanished", s.ids[i])
		}
		k := 0
		for t := 0; t < cost.NumTiers; t++ {
			for n := 0; n < spec.InProc[t]; n++ {
				v := &viewer{
					session: s.ids[i], sess: sess, tier: cost.Tier(t),
					watch: spec.HTTPTier == "" && spec.Steered, slow: sched.Slow[i][k],
					rng: stream(seed, int64(100+i*1000+k)),
				}
				k++
				s.viewers = append(s.viewers, v)
			}
		}
		if spec.HTTPTier != "" {
			tier, err := cost.ParseTier(spec.HTTPTier)
			if err != nil {
				s.close()
				return nil, 0, err
			}
			s.viewers = append(s.viewers, &viewer{session: s.ids[i], tier: tier, http: true, watch: spec.Steered})
		}
	}
	first.Add(len(s.viewers))
	for _, v := range s.viewers {
		v.first = first.Done
		s.viewerWG.Add(1)
		go func(v *viewer) {
			defer s.viewerWG.Done()
			if v.http {
				v.runHTTP(ctx, s)
			} else {
				v.runInProc(ctx, s)
			}
		}(v)
	}
	done := make(chan struct{})
	go func() { first.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		s.close()
		return nil, 0, errors.New("initial viewers got no first frame within 60s")
	}
	return s, time.Since(t0), nil
}

// close stops the viewers, the server and the manager, waiting for each.
func (s *service) close() {
	if s.stopViewers != nil {
		s.stopViewers()
	}
	s.viewerWG.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a drain past 20s leaves nothing for the benchmark to do
	<-s.serveDone
	_ = s.mgr.Shutdown(ctx)
	for _, c := range []*http.Client{s.ctl, s.view} {
		c.CloseIdleConnections()
	}
}

// stopClients ends the viewers and destroys the resident sessions, leaving
// the manager idle for the stage replay.
func (s *service) stopClients() {
	s.stopViewers()
	s.viewerWG.Wait()
	for _, id := range s.ids {
		_ = s.mgr.Destroy(id) // already gone only if the run failed, which the op log shows
	}
}

// do runs one control-connection request and reads the whole reply.
func (s *service) do(c *http.Client, ctx context.Context, method, path string, body any) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

func (s *service) create(cr webui.CreateRequest) (string, error) {
	code, _, data, err := s.do(s.ctl, context.Background(), http.MethodPost, "/api/sessions", cr)
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated {
		return "", fmt.Errorf("POST /api/sessions: %d %s", code, bytes.TrimSpace(data))
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("POST /api/sessions: bad reply %q", data)
	}
	return out.ID, nil
}

// viewer is one closed-loop frame consumer.
type viewer struct {
	session string
	sess    *steering.ManagedSession // in-process viewers only
	tier    cost.Tier
	http    bool
	// watch viewers time steer -> pixels for their session; slow viewers
	// pause long enough to be evicted, then re-join.
	watch bool
	slow  bool
	rng   *rand.Rand
	first func()

	// Written only by the viewer's goroutine; read after it exits. Viewers
	// keep their own counts and spans: a shared lock taken on every
	// delivery would serialize the fan-out being measured.
	receipts  []receipt
	evictions []int64
	spans     []span
}

func (v *viewer) got(r receipt) {
	if v.receipts == nil {
		v.receipts = make([]receipt, 0, 512)
	}
	v.receipts = append(v.receipts, r)
	if v.first != nil {
		v.first()
		v.first = nil
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// runInProc consumes frames through a tracked steering.Viewer, re-joining
// after an eviction as a client told to back off would.
func (v *viewer) runInProc(ctx context.Context, s *service) {
	var since uint64
	for ctx.Err() == nil {
		vw := v.sess.AttachViewerTier(v.tier)
		attach := s.rec.now()
		for {
			start := s.rec.now()
			seq, data, err := vw.Wait(ctx, since)
			at := s.rec.now()
			if err != nil {
				vw.Close()
				switch {
				case ctx.Err() != nil:
					return
				case errors.Is(err, steering.ErrViewerEvicted):
					v.evictions = append(v.evictions, at)
				default:
					s.log.fail("viewer %s/%s: %v", v.session, v.tier, err)
				}
				sleepCtx(ctx, 100*time.Millisecond)
				break
			}
			s.tr.into(&v.spans, spanWait, seq, start, at)
			v.got(receipt{Seq: seq, At: at, Data: data, Tier: v.tier, Attach: attach})
			since = seq
			if v.slow && v.rng.Float64() < 0.3 {
				sleepCtx(ctx, time.Duration((1.2+1.2*v.rng.Float64())*float64(time.Second)))
			}
		}
	}
}

// runHTTP is the browser's long-poll loop over the viewer connection.
func (v *viewer) runHTTP(ctx context.Context, s *service) {
	var since uint64
	attach := s.rec.now()
	for ctx.Err() == nil {
		path := "/sessions/" + v.session + "/api/frame?since=" + strconv.FormatUint(since, 10) +
			"&tier=" + v.tier.String()
		start := s.rec.now()
		code, hdr, data, err := s.do(s.view, ctx, http.MethodGet, path, nil)
		at := s.rec.now()
		if ctx.Err() != nil {
			return
		}
		if err != nil || code != http.StatusOK {
			s.log.failHTTP(at, "GET %s: code %d err %v", path, code, err)
			sleepCtx(ctx, 100*time.Millisecond)
			continue
		}
		seq, err := strconv.ParseUint(hdr.Get("X-Frame-Seq"), 10, 64)
		if err != nil {
			s.log.failHTTP(at, "GET %s: bad X-Frame-Seq %q", path, hdr.Get("X-Frame-Seq"))
			continue
		}
		s.tr.into(&v.spans, spanGetFrame, seq, start, at)
		v.got(receipt{Seq: seq, At: at, Data: data, Tier: v.tier,
			HdrTier: hdr.Get("X-Frame-Tier"), Attach: attach})
		since = seq
	}
}
