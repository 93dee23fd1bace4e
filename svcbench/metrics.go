package main

import (
	"fmt"
	"sort"
	"time"

	"ricsa/internal/cost"
	"ricsa/internal/viz"
)

// metric is one reported number. N is its sample count (0 for counts and
// rates); Q the percentile it reports, for the samples-beyond note.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Q     float64
}

func (m metric) String() string {
	s := fmt.Sprintf("%-34s %14.4f %-6s", m.Name, m.Value, m.Unit)
	if m.N > 0 {
		if m.Q > 0 {
			s += " " + sampleNote(m.N, m.Q)
		} else {
			s += fmt.Sprintf(" n=%d", m.N)
		}
	}
	return s
}

// timing reports the q-quantile of d in milliseconds.
func timing(name string, d dist, q float64) metric {
	return metric{Name: name, Unit: "ms", Value: d.pct(q), N: len(d), Q: q}
}

// frameInfo is one produced frame as the benchmark saw it.
type frameInfo struct {
	frameRec
	Start   int64 // production start: sink arrival minus ProduceNS
	Publish int64 // earlier of sink arrival and first delivery
}

// runData indexes everything a run recorded, for metrics over any phase.
type runData struct {
	svc     *service
	frames  map[string][]*frameInfo // per session, in seq order
	bySeq   map[string]map[uint64]*frameInfo
	watched map[string]bool
}

func newRunData(svc *service) *runData {
	d := &runData{svc: svc, frames: map[string][]*frameInfo{}, bySeq: map[string]map[uint64]*frameInfo{},
		watched: map[string]bool{}}
	for i, spec := range svc.w.Sessions {
		if spec.Watched {
			d.watched[svc.ids[i]] = true
		}
	}
	for _, f := range svc.rec.snapshot() {
		fi := &frameInfo{frameRec: f, Start: f.At - f.Rec.ProduceNS, Publish: f.At}
		d.frames[f.Rec.Session] = append(d.frames[f.Rec.Session], fi)
		if d.bySeq[f.Rec.Session] == nil {
			d.bySeq[f.Rec.Session] = map[uint64]*frameInfo{}
		}
		d.bySeq[f.Rec.Session][f.Rec.Seq] = fi
	}
	for _, fs := range d.frames {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Rec.Seq < fs[j].Rec.Seq })
	}
	for _, v := range svc.viewers {
		for _, r := range v.receipts {
			if fi := d.bySeq[v.session][r.Seq]; fi != nil && r.At < fi.Publish {
				fi.Publish = r.At
			}
		}
	}
	return d
}

func in(t int64, ph *phase) bool { return t >= ph.Start && t < ph.End }

// watchedFrames returns the watched sessions' frames published in the
// phase; rendered restricts them to frames that went through render.
func (d *runData) watchedFrames(ph *phase, rendered bool) []*frameInfo {
	var out []*frameInfo
	for id := range d.watched {
		for _, f := range d.frames[id] {
			if in(f.At, ph) && (!rendered || f.Rec.Rendered) {
				out = append(out, f)
			}
		}
	}
	return out
}

// lags returns publish -> receipt lags in the phase for HTTP and for
// in-process viewers, and per frame the lag of its last receipt (when every
// viewer that got it held it). Slow viewers are left out (their lag is
// their own pause), as are frames published before the receiving Viewer
// attached (a re-joining delta viewer is handed the retained keyframe).
func (d *runData) lags(ph *phase) (httpLag, procLag dist, lastLag map[string]dist) {
	last := map[*frameInfo]float64{}
	for _, v := range d.svc.viewers {
		if v.slow {
			continue
		}
		for _, r := range v.receipts {
			fi := d.bySeq[v.session][r.Seq]
			if !in(r.At, ph) || fi == nil || fi.Publish < r.Attach {
				continue
			}
			lag := float64(r.At-fi.Publish) / 1e6
			last[fi] = max(last[fi], lag)
			if v.http {
				httpLag = append(httpLag, lag)
			} else {
				procLag = append(procLag, lag)
			}
		}
	}
	lastLag = map[string]dist{}
	for fi, l := range last {
		lastLag[fi.Rec.Session] = append(lastLag[fi.Rec.Session], l)
	}
	return httpLag, procLag, lastLag
}

// deliverAll is each watched session's median over frames of the lag until
// the frame's last receipt, averaged over the sessions, so the mix of
// sessions' frames cannot shift it. It also returns how many frames fed it.
func deliverAll(lastLag map[string]dist) (float64, int) {
	var sum float64
	n := 0
	for _, l := range lastLag {
		sum += l.pct(0.5)
		n += len(l)
	}
	return sum / float64(max(len(lastLag), 1)), n
}

// framesPerSecond is each watched session's publish rate over the phase,
// (frames - 1) over the span from its first to its last publish, averaged
// over the sessions. Timing the span keeps the digits a bare count would
// quantize away on paced sessions.
func (d *runData) framesPerSecond(ph *phase) float64 {
	var sum float64
	for id := range d.watched {
		var first, last int64
		n := 0
		for _, f := range d.frames[id] {
			if in(f.At, ph) {
				if n == 0 {
					first = f.At
				}
				last = f.At
				n++
			}
		}
		if n > 1 {
			sum += float64(n-1) / (float64(last-first) / 1e9)
		}
	}
	return sum / float64(max(len(d.watched), 1))
}

// steerToPixels resolves every steer of the phase; unreflected ones are
// logged as failures.
func (d *runData) steerToPixels(ph *phase) dist {
	var out dist
	watchers := map[string][][]receipt{}
	for _, v := range d.svc.viewers {
		if v.watch {
			watchers[v.session] = append(watchers[v.session], v.receipts)
		}
	}
	for _, sl := range ph.Steers {
		if !sl.OK {
			continue
		}
		var starts []frameStart
		for _, f := range d.frames[sl.Session] {
			starts = append(starts, frameStart{Seq: f.Rec.Seq, Start: f.Start})
		}
		at, _, ok := reflection(sl.Ack, starts, watchers[sl.Session])
		deadline := min(sl.Due+int64(5*time.Second), ph.DrainEnd)
		if !ok || at > deadline {
			d.svc.log.check(false, "steer to %s due %.3fs not reflected by %.3fs",
				sl.Session, float64(sl.Due)/1e9, float64(deadline)/1e9)
			continue
		}
		out = append(out, float64(at-sl.Due)/1e6)
	}
	return out
}

func (d *runData) delivered(ph *phase) int {
	n := 0
	for _, v := range d.svc.viewers {
		for _, r := range v.receipts {
			if in(r.At, ph) {
				n++
			}
		}
	}
	return n
}

func (d *runData) evictions(ph *phase) int {
	n := 0
	for _, v := range d.svc.viewers {
		for _, at := range v.evictions {
			if at >= ph.Start && at < ph.DrainEnd {
				n++
			}
		}
	}
	return n
}

// endToEnd computes the user-visible metrics of one phase.
//
// gated are the metrics BENCHMARK.json lists. printed are the rest of the
// user-visible figures; on a shared host their run-to-run spread is too
// wide to gate a change (METRICS.md gives the measured spreads).
func (d *runData) endToEnd(ph *phase, setups dist) (gated, printed []metric) {
	secs := float64(ph.End-ph.Start) / 1e9
	frames := len(d.watchedFrames(ph, false))
	delivered := d.delivered(ph)
	httpLag, procLag, lastLag := d.lags(ph)
	lag := append(append(dist(nil), httpLag...), procLag...)
	allMS, allN := deliverAll(lastLag)
	s2p := d.steerToPixels(ph)
	var starts dist
	for _, sl := range ph.Starts {
		if sl.OK {
			starts = append(starts, float64(sl.First-sl.Post)/1e6)
		}
	}
	cpuMS := float64(ph.CPUEnd-ph.CPUStart) / 1e6
	gated = []metric{
		{Name: "setup_s", Unit: "s", Value: setups.pct(0.5), N: len(setups), Q: 0.5},
		timing("steer_to_pixels_p50_ms", s2p, 0.5),
		timing("steer_to_pixels_p90_ms", s2p, 0.9),
		{Name: "frames_per_s", Unit: "1/s", Value: d.framesPerSecond(ph), N: frames},
		{Name: "frames_delivered_per_s", Unit: "1/s", Value: float64(delivered) / secs, N: delivered},
		timing("session_start_p50_ms", starts, 0.5),
		{Name: "cpu_ms_per_frame", Unit: "ms", Value: cpuMS / float64(max(frames, 1)), N: frames},
		{Name: "rss_median_mb", Unit: "MB", Value: ph.RSSMB.pct(0.5), N: len(ph.RSSMB), Q: 0.5},
	}
	printed = []metric{
		{Name: "deliver_all_p50_ms", Unit: "ms", Value: allMS, N: allN, Q: 0.5},
		timing("deliver_lag_p50_ms", lag, 0.5),
		timing("deliver_lag_p99_ms", lag, 0.99),
		timing("session_start_p75_ms", starts, 0.75),
		{Name: "rss_peak_mb", Unit: "MB", Value: peakRSSMB()},
	}
	return gated, printed
}

// ops returns the run's attempted operations (the op log's plus every
// viewer delivery and eviction), failed ones, and evictions.
func (d *runData) ops() (attempted, failed, evicted int) {
	l := d.svc.log
	l.mu.Lock()
	attempted, failed = l.attempted, l.failed
	l.mu.Unlock()
	for _, v := range d.svc.viewers {
		attempted += len(v.receipts) + len(v.evictions)
		evicted += len(v.evictions)
	}
	return attempted, failed, evicted
}

// opsFailedFrac is failed operations, slow-consumer evictions included,
// over attempted ones, for the whole run.
func (d *runData) opsFailedFrac() float64 {
	attempted, failed, evicted := d.ops()
	return float64(failed+evicted) / float64(max(attempted, 1))
}

// perLayer computes the traced phase's layer metrics.
func (d *runData) perLayer(ph *phase, reps []*stageReplay, ctl *controlReplay) []metric {
	var m []metric
	httpLag, procLag, lastLag := d.lags(ph)
	allMS, allN := deliverAll(lastLag)
	m = append(m,
		metric{Name: "deliver_all_p50_ms", Unit: "ms", Value: allMS, N: allN, Q: 0.5},
		timing("webui.deliver_lag_p99_ms", httpLag, 0.99))

	// Bytes per delivered frame by tier, and the delta stream's key share.
	var bytesByTier [cost.NumTiers]dist
	deltaSeen := map[frameKey]bool{}
	deltaKeys := 0
	fullSeen := map[frameKey]bool{}
	var pngBytes dist
	skipped, received := 0, 0
	for _, v := range d.svc.viewers {
		var last uint64
		for i, r := range v.receipts {
			if !in(r.At, ph) {
				last = r.Seq
				continue
			}
			bytesByTier[r.Tier] = append(bytesByTier[r.Tier], float64(len(r.Data)))
			k := frameKey{v.session, r.Tier, r.Seq}
			switch {
			case r.Tier == cost.TierDelta && !deltaSeen[k]:
				deltaSeen[k] = true
				if f, err := viz.ParseDeltaFrame(r.Data); err == nil && f.Kind == viz.DeltaKey {
					deltaKeys++
				}
			case r.Tier == cost.TierFull && !fullSeen[k]:
				fullSeen[k] = true
				pngBytes = append(pngBytes, float64(len(r.Data)))
			}
			if !v.http && !v.slow && i > 0 && r.Seq > last {
				skipped += int(r.Seq - last - 1)
				received++
			}
			last = r.Seq
		}
	}
	for t := 0; t < cost.NumTiers; t++ {
		m = append(m, metric{Name: "webui.frame_bytes." + cost.Tier(t).String(), Unit: "bytes",
			Value: bytesByTier[t].mean(), N: len(bytesByTier[t])})
	}
	m = append(m,
		timing("webui.steer_post_ms.p50", ph.SteerMS, 0.5),
		timing("webui.create_post_ms.p50", ph.CreatePostMS, 0.5),
		metric{Name: "webui.http_errors", Unit: "count", Value: float64(d.svc.log.httpErrorsIn(ph))},
		timing("steering.deliver_lag_p50_ms", procLag, 0.5),
		timing("steering.deliver_lag_p99_ms", procLag, 0.99),
		metric{Name: "steering.frames_skipped_frac", Unit: "ratio",
			Value: float64(skipped) / float64(max(skipped+received, 1)), N: skipped + received},
		metric{Name: "steering.viewers_evicted", Unit: "count", Value: float64(d.evictions(ph))},
		timing("steering.first_frame_ms", ctl.FirstFrameMS, 0.5),
	)

	var step, snap, extract, encode, down, delta, ray, stream dist
	for _, r := range reps {
		step = append(step, r.StepMS...)
		snap = append(snap, r.SnapMS...)
		extract = append(extract, r.ExtractMS...)
		encode = append(encode, r.EncodeMS...)
		down = append(down, r.DownscaleMS...)
		delta = append(delta, r.DeltaMS...)
		ray = append(ray, r.RaycastMS...)
		stream = append(stream, r.StreamlineMS...)
	}

	// Every producer's stall on the shared pool, and the watched sessions'
	// frame breakdown, from the live FrameRecords.
	var poolLive dist
	for _, fs := range d.frames {
		for _, f := range fs {
			if in(f.At, ph) {
				poolLive = append(poolLive, float64(f.Rec.PoolWaitNS)/1e6)
			}
		}
	}
	var produce, sim, render, enc, queue, pool, unexplained dist
	reused, extracted := 0, 0
	for _, f := range d.watchedFrames(ph, true) {
		r := f.Rec
		produce = append(produce, float64(r.ProduceNS)/1e6)
		sim = append(sim, float64(r.SimNS)/1e6)
		render = append(render, float64(r.RenderNS)/1e6)
		enc = append(enc, float64(r.EncodeNS)/1e6)
		queue = append(queue, float64(r.QueueWaitNS)/1e6)
		pool = append(pool, float64(r.PoolWaitNS)/1e6)
		unexplained = append(unexplained, float64(r.ProduceNS-r.SimNS-r.RenderNS-r.EncodeNS)/1e6)
		reused += r.BlocksReused
		extracted += r.BlocksExtracted
	}
	cacheHits := ph.Cache1.Hits - ph.Cache0.Hits
	cacheMisses := ph.Cache1.Misses - ph.Cache0.Misses
	m = append(m,
		timing("simengine.step_ms.p50", step, 0.5),
		timing("simengine.snapshot_ms.p50", snap, 0.5),
		timing("fcp.pool_wait_ms.p50", poolLive, 0.5),
		timing("fcp.pool_wait_ms.p99", poolLive, 0.99),
		timing("viz.extract_render_ms.p50", extract, 0.5),
		metric{Name: "viz.blocks_reextracted_frac", Unit: "ratio",
			Value: float64(extracted) / float64(max(reused+extracted, 1)), N: reused + extracted},
		timing("viz.png_encode_ms.p50", encode, 0.5),
		metric{Name: "viz.png_bytes", Unit: "bytes", Value: pngBytes.mean(), N: len(pngBytes)},
		timing("viz.tier_downscale_ms.p50", down, 0.5),
		timing("viz.tier_delta_ms.p50", delta, 0.5),
		metric{Name: "viz.delta_key_frac", Unit: "ratio",
			Value: float64(deltaKeys) / float64(max(len(deltaSeen), 1)), N: len(deltaSeen)},
		timing("viz.raycast_ms.p50", ray, 0.5),
		timing("viz.streamline_ms.p50", stream, 0.5),
		timing("cm.optimize_ms.miss.p50", ctl.OptMissMS, 0.5),
		timing("cm.optimize_ms.hit.p50", ctl.OptHitMS, 0.5),
		metric{Name: "pipeline.cache_hit_frac", Unit: "ratio",
			Value: float64(cacheHits) / float64(max(cacheHits+cacheMisses, 1)), N: int(cacheHits + cacheMisses)},
		timing("cm.remeasure_ms.p50", ctl.RemeasureMS, 0.5),
		timing("frame.produce_ms.p50", produce, 0.5),
		timing("frame.produce_ms.p99", produce, 0.99),
		timing("frame.sim_ms.p50", sim, 0.5),
		timing("frame.render_ms.p50", render, 0.5),
		timing("frame.encode_ms.p50", enc, 0.5),
		timing("frame.queue_wait_ms.p99", queue, 0.99),
		timing("frame.pool_wait_ms.p50", pool, 0.5),
		timing("frame.unexplained_ms.p50", unexplained, 0.5),
		metric{Name: "ops_failed_frac", Unit: "ratio", Value: d.opsFailedFrac()},
	)
	return m
}

// stageOrder checks every recorded frame's stages fit inside its produce
// time, returning how many frames were checked.
func (d *runData) stageOrder() int {
	n := 0
	for _, fs := range d.frames {
		for _, f := range fs {
			r := f.Rec
			n++
			d.svc.log.check(r.SimNS+r.RenderNS+r.EncodeNS <= r.ProduceNS,
				"%s seq %d: sim %d + render %d + encode %d > produce %d ns",
				r.Session, r.Seq, r.SimNS, r.RenderNS, r.EncodeNS, r.ProduceNS)
		}
	}
	return n
}

// primaryProduce is the live produce-time median of the workload's first
// watched session, the figure the replay's stage sum reconciles against.
func (d *runData) primaryProduce(ph *phase) dist {
	var out dist
	for i, spec := range d.svc.w.Sessions {
		if !spec.Watched {
			continue
		}
		for _, f := range d.frames[d.svc.ids[i]] {
			if in(f.At, ph) && f.Rec.Rendered {
				out = append(out, float64(f.Rec.ProduceNS)/1e6)
			}
		}
		return out
	}
	return out
}
