package main

import (
	"sort"
	"sync"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/telemetry"
)

// recorder is the benchmark's telemetry.Sink: it timestamps every frame
// record on arrival, which (with ProduceNS) places each frame's production
// start on the benchmark's own clock. The collector flushes one record per
// batch, so arrival follows publish by microseconds.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	frames []frameRec
}

type frameRec struct {
	At  int64 // sink arrival, ns since epoch
	Rec telemetry.FrameRecord
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the benchmark clock: monotonic nanoseconds since the recorder
// was made.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Flush implements telemetry.Sink.
func (r *recorder) Flush(batch []telemetry.FrameRecord) {
	at := r.now()
	r.mu.Lock()
	for i := range batch {
		r.frames = append(r.frames, frameRec{At: at, Rec: batch[i]})
	}
	r.mu.Unlock()
}

// startedAfter reports whether the session has a recorded frame whose
// production started after t (the online half of steer reflection, used
// to time status checks).
func (r *recorder) startedAfter(session string, t int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.frames) - 1; i >= 0 && r.frames[i].At > t; i-- {
		f := &r.frames[i]
		if f.Rec.Session == session && f.At-f.Rec.ProduceNS > t+reflectGuardNS {
			return true
		}
	}
	return false
}

func (r *recorder) snapshot() []frameRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]frameRec(nil), r.frames...)
}

// reflectGuardNS is subtracted from a frame's inferred production start
// before comparing it with a steer's acknowledgement. The start is inferred
// from the sink's arrival stamp, which trails the producer's own stopwatch
// by the record hand-off; the guard keeps a frame that started just before
// the ack from ever counting as reflecting it.
const reflectGuardNS = int64(100 * time.Microsecond)

// frameStart is one produced frame of a session on the benchmark clock.
type frameStart struct {
	Seq   uint64
	Start int64
}

// receipt is one frame a viewer received.
type receipt struct {
	Seq  uint64
	At   int64
	Data []byte
	// Tier is the tier the viewer negotiated; HdrTier the X-Frame-Tier
	// header (HTTP viewers only).
	Tier    cost.Tier
	HdrTier string
	// Attach is when the Viewer that returned the frame attached.
	Attach int64
}

// reflection finds the first delivery that reflects a steer acknowledged at
// ack: the earliest receipt, by any watching viewer, of a frame at or after
// the first frame whose production started after the ack. frames are the
// session's frames in seq order; watchers each hold receipts in seq order.
// A frame that started before the ack never counts, however late it was
// delivered.
func reflection(ack int64, frames []frameStart, watchers [][]receipt) (at int64, seq uint64, ok bool) {
	i := sort.Search(len(frames), func(i int) bool { return frames[i].Start > ack+reflectGuardNS })
	// Starts are monotone in seq, so every later frame also reflects.
	if i == len(frames) {
		return 0, 0, false
	}
	target := frames[i].Seq
	for _, rs := range watchers {
		j := sort.Search(len(rs), func(j int) bool { return rs[j].Seq >= target })
		if j < len(rs) && (!ok || rs[j].At < at) {
			at, seq, ok = rs[j].At, rs[j].Seq, true
		}
	}
	return at, seq, ok
}
