package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ricsa/internal/pipeline"
)

// steerLog is one sent steer.
type steerLog struct {
	Session        string
	Op             *steerOp
	Due, Sent, Ack int64
	OK             bool
	// Verified is set when a status read taken after the steer was
	// reflected, with no later steer to the session, matched its values.
	Verified bool
}

// startLog is one create -> first frame -> destroy cycle.
type startLog struct {
	Post, First int64
	OK          bool
	Frame       []byte
}

// phase is one measured window and everything the control side did in it.
type phase struct {
	Traced                bool
	Start, End, DrainEnd  int64
	CPUStart, CPUEnd      time.Duration
	RSSMB                 dist
	Steers                []*steerLog
	Starts                []*startLog
	IdleFrames            [][]byte
	Remeasures            int
	MaxLateMS             float64
	CreatePostMS, SteerMS dist
	// Cache0/Cache1 bracket the window's optimizer-cache counters.
	Cache0, Cache1 pipeline.CacheStats
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// rssMB reads the process's resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssEvery is the window's RSS sampling period. The median of the samples
// is reported: a single peak lands wherever the collector happened to run.
const rssEvery = 50 * time.Millisecond

// drainFor is how long the service keeps running after a window's last
// scheduled operation so its late steers can be reflected; a steer not
// reflected by then has waited at least this long and counts as failed.
const drainFor = 2500 * time.Millisecond

// runWindow drives one measured window of the schedule against the live
// service: the control connection works through its timeline open-loop
// (each operation timed from when it was due), remeasures run on their
// own goroutine, and the viewers keep consuming throughout.
func (s *service) runWindow(sched *schedule, window time.Duration, traced bool) *phase {
	s.tr.setOn(traced)
	defer s.tr.setOn(false)
	ph := &phase{Traced: traced}
	ph.CPUStart = cpuTime()
	ph.Cache0 = s.mgr.CacheStats()
	ph.Start = s.rec.now()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, op := range sched.Remeasures {
			s.waitUntil(ph.Start+int64(op.At), nil)
			t0 := s.rec.now()
			s.mgr.Remeasure(op.Seed)
			s.tr.span(spanRemeasure, 0, uint64(op.Seed), t0, s.rec.now())
			ph.Remeasures++
		}
	}()
	stopRSS := make(chan struct{})
	var rss dist
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-stopRSS:
				return
			case <-t.C:
				rss = append(rss, rssMB())
			}
		}
	}()

	pending := map[string]*steerLog{}
	var idleSince uint64
	for _, op := range sched.timeline() {
		due := ph.Start + int64(op.At)
		s.waitUntil(due, func() { s.verifySteers(pending) })
		if late := float64(s.rec.now()-due) / 1e6; late > ph.MaxLateMS {
			ph.MaxLateMS = late
		}
		switch {
		case op.Steer != nil:
			id := s.ids[op.Steer.Session]
			delete(pending, id) // a newer steer supersedes an unverified one
			sl := s.steer(op.Steer, id, due, ph)
			ph.Steers = append(ph.Steers, sl)
			if sl.OK {
				pending[id] = sl
			}
		case op.Start != nil:
			ph.Starts = append(ph.Starts, s.startCycle(op.Start, due, ph))
		case op.Idle:
			if frame, seq := s.idlePoll(idleSince); frame != nil {
				ph.IdleFrames = append(ph.IdleFrames, frame)
				idleSince = seq
			}
		}
	}
	ph.End = ph.Start + int64(window)
	s.waitUntil(ph.End, func() { s.verifySteers(pending) })
	ph.CPUEnd = cpuTime()
	close(stopRSS)
	ph.Cache1 = s.mgr.CacheStats()
	wg.Wait()
	ph.RSSMB = rss
	s.waitUntil(s.rec.now()+int64(drainFor), func() { s.verifySteers(pending) })
	ph.DrainEnd = s.rec.now()
	return ph
}

// waitUntil sleeps until the benchmark clock reaches t, running idle (when
// non-nil) every few milliseconds meanwhile.
func (s *service) waitUntil(t int64, idle func()) {
	for {
		d := time.Duration(t - s.rec.now())
		if d <= 0 {
			return
		}
		if idle != nil {
			idle()
			d = min(d, 5*time.Millisecond)
		}
		time.Sleep(d)
	}
}

func (s *service) steer(op *steerOp, id string, due int64, ph *phase) *steerLog {
	sl := &steerLog{Session: id, Op: op, Due: due}
	sl.Sent = s.rec.now()
	code, _, data, err := s.do(s.ctl, context.Background(), http.MethodPost,
		"/sessions/"+id+"/api/steer", op.Form.params())
	sl.Ack = s.rec.now()
	s.tr.span(spanSteerPost, 0, uint64(sl.Due), sl.Sent, sl.Ack)
	ph.SteerMS = append(ph.SteerMS, float64(sl.Ack-sl.Sent)/1e6)
	if err != nil || code != http.StatusOK {
		s.log.failHTTP(s.rec.now(), "steer %s: code %d err %v %s", id, code, err, data)
		return sl
	}
	s.log.ok()
	sl.OK = true
	// The isovalue applies synchronously, so the status must show it now.
	s.checkStatus(sl, false)
	return sl
}

// verifySteers fully checks the status of every session whose last steer
// has since been reflected: by then the steered physics parameters have
// crossed a step boundary too.
func (s *service) verifySteers(pending map[string]*steerLog) {
	for id, sl := range pending {
		if s.rec.startedAfter(id, sl.Ack) {
			delete(pending, id)
			sl.Verified = s.checkStatus(sl, true)
		}
	}
}

// checkStatus reads the steered session's /api/status and compares the
// steerable values it exposes with the form the steer posted: the
// isovalue, and with full also left_pressure and left_density.
func (s *service) checkStatus(sl *steerLog, full bool) bool {
	t0 := s.rec.now()
	code, _, data, err := s.do(s.ctl, context.Background(), http.MethodGet,
		"/sessions/"+sl.Session+"/api/status", nil)
	s.tr.span(spanStatus, 0, uint64(sl.Due), t0, s.rec.now())
	var st map[string]any
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(data, &st)
	}
	if err != nil || code != http.StatusOK {
		s.log.failHTTP(s.rec.now(), "status %s: code %d err %v", sl.Session, code, err)
		return false
	}
	want := map[string]float64{"isovalue": float64(float32(sl.Op.Form.Isovalue))}
	if full {
		want["left_pressure"] = sl.Op.Form.LeftPressure
		want["left_density"] = sl.Op.Form.LeftDensity
	}
	for k, w := range want {
		if got, ok := st[k].(float64); !ok || math.Abs(got-w) > 1e-9 {
			s.log.failHTTP(s.rec.now(), "status %s after steer due %.3fs: %s = %v, want %v",
				sl.Session, float64(sl.Due)/1e9, k, st[k], w)
			return false
		}
	}
	s.log.ok()
	return true
}

// startCycle creates a session over HTTP, long-polls its first frame and
// destroys it.
func (s *service) startCycle(op *startOp, due int64, ph *phase) *startLog {
	sl := &startLog{Post: s.rec.now()}
	id, err := s.create(op.Req)
	created := s.rec.now()
	s.tr.span(spanCreatePost, 0, uint64(due), sl.Post, created)
	ph.CreatePostMS = append(ph.CreatePostMS, float64(created-sl.Post)/1e6)
	if err != nil {
		s.log.failHTTP(s.rec.now(), "churn create: %v", err)
		return sl
	}
	s.log.ok()
	code, _, data, err := s.do(s.ctl, context.Background(), http.MethodGet,
		"/sessions/"+id+"/api/frame?since=0", nil)
	sl.First = s.rec.now()
	s.tr.span(spanGetFirst, 0, uint64(due), created, sl.First)
	if err != nil || code != http.StatusOK {
		s.log.failHTTP(s.rec.now(), "churn first frame %s: code %d err %v", id, code, err)
	} else {
		s.log.ok()
		sl.OK, sl.Frame = true, data
	}
	t0 := s.rec.now()
	code, _, _, err = s.do(s.ctl, context.Background(), http.MethodDelete, "/api/sessions/"+id, nil)
	s.tr.span(spanDelete, 0, uint64(due), t0, s.rec.now())
	if err != nil || code != http.StatusOK {
		s.log.failHTTP(s.rec.now(), "churn destroy %s: code %d err %v", id, code, err)
		sl.OK = false
	} else {
		s.log.ok()
	}
	return sl
}

// idlePoll reads the idle session's newest frame with a stateless GET.
func (s *service) idlePoll(since uint64) ([]byte, uint64) {
	id := ""
	for i, spec := range s.w.Sessions {
		if spec.IdlePolled {
			id = s.ids[i]
		}
	}
	t0 := s.rec.now()
	code, hdr, data, err := s.do(s.ctl, context.Background(), http.MethodGet,
		"/sessions/"+id+"/api/frame?since="+strconv.FormatUint(since, 10), nil)
	s.tr.span(spanIdlePoll, 0, since, t0, s.rec.now())
	if err != nil || code != http.StatusOK {
		s.log.failHTTP(s.rec.now(), "idle poll %s: code %d err %v", id, code, err)
		return nil, 0
	}
	seq, err := strconv.ParseUint(hdr.Get("X-Frame-Seq"), 10, 64)
	if err != nil {
		s.log.failHTTP(s.rec.now(), "idle poll %s: bad X-Frame-Seq", id)
		return nil, 0
	}
	s.log.ok()
	return data, seq
}
