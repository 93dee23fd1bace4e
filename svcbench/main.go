// Command svcbench is the RICSA service benchmark. It runs the live
// multi-session service in-process — steering.SessionManager behind a
// webui.Hub on a loopback listener — drives one seeded workload against it
// through the users' entry points (HTTP long-poll frames, steers and
// session create/destroy, plus in-process steering.Viewer viewers for
// scale), checks every delivered frame, and prints the end-to-end metrics.
// With -trace 1 it runs an untraced and a traced window back to back,
// replays the frame stages and control-plane calls in isolation, and prints
// the per-layer metrics, the stage reconciliation and the tracing overhead.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash svcbench/run.sh --workload steer-local --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics by name with their units. The run exits non-zero
// when a frame, status or steer check fails. METRICS.md maps each layer
// metric to the end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runOpts sizes the parts of a run that are not the measured window.
type runOpts struct {
	// Setups is how many times the service is set up; setup_s is their
	// median and the last one is measured.
	Setups int
	// Warmup runs the live service before the first window.
	Warmup time.Duration
	// SpanDir receives the traced run's spans.
	SpanDir string
}

var defaultOpts = runOpts{Setups: 11, Warmup: 1500 * time.Millisecond, SpanDir: ".bench_build/spans"}

// result is the run's outcome, printed as the last line of standard output.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
}

func (r *result) json() string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.Metrics {
		ms[m.Name] = val{m.Value, m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}) // plain structs of numbers and strings always marshal
	return string(b)
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured window length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "svcbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, os.Stdout, defaultOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	fmt.Println(res.json())
	if !res.Correct {
		os.Exit(1)
	}
}

// steersFor returns the schedule's steers of one session.
func steersFor(sc *schedule, session int) []steerOp {
	var out []steerOp
	for _, op := range sc.Steers {
		if op.Session == session {
			out = append(out, op)
		}
	}
	return out
}

// reconcileTolerance is the stated share by which the isolated replay's
// stage sum may differ from the live produce median; outside it the report
// says so (the live frame also pays CM consults, monitoring and contention).
const reconcileTolerance = 0.25

func run(w *workload, seed int64, window time.Duration, traced bool, out io.Writer, o runOpts) (*result, error) {
	fmt.Fprintf(out, "# svcbench workload=%s seed=%d window=%s trace=%v\n", w.Name, seed, window, traced)
	fmt.Fprintf(out, "# host %s\n", fingerprint())
	sched := buildSchedule(w, seed, window)
	var tr *tracer
	if traced {
		tr = &tracer{}
	}

	var setups dist
	var svc *service
	for i := 0; i < o.Setups; i++ {
		s, d, err := startService(w, &sched, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
		if i < o.Setups-1 {
			s.close()
		} else {
			svc = s
		}
	}
	fmt.Fprintf(out, "# setup_s samples %v\n", setups)
	time.Sleep(o.Warmup)

	untraced := svc.runWindow(&sched, window, false)
	var tracedPh *phase
	if traced {
		tracedPh = svc.runWindow(&sched, window, true)
	}
	svc.stopClients()

	var reps []*stageReplay
	var ctl *controlReplay
	var replayStart int64
	if traced {
		replayStart = svc.rec.now()
		tr.setOn(true)
		for i, spec := range w.Sessions {
			if spec.Watched {
				reps = append(reps, replayStages(tr, svc.rec.now, spec, steersFor(&sched, i)))
			}
		}
		var err error
		ctl, err = replayControl(tr, svc, seed)
		tr.setOn(false)
		if err != nil {
			svc.close()
			return nil, err
		}
	}
	svc.close()

	if traced {
		for _, v := range svc.viewers {
			tr.spans = append(tr.spans, v.spans...)
		}
	}
	d := newRunData(svc)
	c := newChecker(svc.log)
	compared := 0
	for _, v := range svc.viewers {
		c.viewer(v)
	}
	for _, v := range svc.viewers {
		if v.http && v.tier.String() == "delta" {
			compared += c.deltaViewer(v)
		}
	}
	phases := []*phase{untraced}
	if traced {
		phases = append(phases, tracedPh)
	}
	for _, ph := range phases {
		for _, sl := range ph.Starts {
			if sl.OK {
				c.png("first frame of a started session", sl.Frame)
			}
		}
		for _, f := range ph.IdleFrames {
			c.png("idle-session poll", f)
		}
	}
	stageFrames := d.stageOrder()

	e2e, extra := d.endToEnd(untraced, setups)
	printMetrics(out, "end_to_end (untraced window)", e2e)
	printMetrics(out, "end_to_end, printed only (untraced window)", extra)
	for _, ph := range phases {
		verified := 0
		for _, sl := range ph.Steers {
			if sl.Verified {
				verified++
			}
		}
		fmt.Fprintf(out, "# control (traced=%v): steers=%d status-verified=%d starts=%d idle_polls=%d remeasures=%d max_late_ms=%.1f\n",
			ph.Traced, len(ph.Steers), verified, len(ph.Starts), len(ph.IdleFrames), ph.Remeasures, ph.MaxLateMS)
	}
	fmt.Fprintf(out, "# checks: distinct frames decoded=%d delta reconstructions compared=%d frames stage-ordered=%d records dropped=%d\n",
		c.checked, compared, stageFrames, svc.mgr.Telemetry().RecordsDropped.Load())

	res := &result{Metrics: e2e}
	if traced {
		e2eT, extraT := d.endToEnd(tracedPh, setups)
		printMetrics(out, "end_to_end (traced window)", e2eT)
		printMetrics(out, "end_to_end, printed only (traced window)", extraT)
		layer := d.perLayer(tracedPh, reps, ctl)
		layer = append(layer, reconcile(out, d.primaryProduce(tracedPh), reps)...)
		layer = append(layer, overhead(out, e2e, e2eT)...)
		printMetrics(out, "per_layer (traced window and replay)", layer)
		var live, replay []span
		for _, sp := range tr.spans {
			if sp.Start < replayStart {
				live = append(live, sp)
			} else {
				replay = append(replay, sp)
			}
		}
		printSelfTimes(out, "traced window: blocking calls, so self time includes waiting", live)
		printSelfTimes(out, "replay", replay)
		path := filepath.Join(o.SpanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(tr.spans), path)
		res.Metrics = layer
	}

	attempted, failed, evicted := d.ops()
	fmt.Fprintf(out, "# ops attempted=%d failed=%d evicted=%d ops_failed_frac(with evictions)=%.5f\n",
		attempted, failed, evicted, d.opsFailedFrac())
	for _, msg := range svc.log.msgs {
		fmt.Fprintf(out, "# FAIL %s\n", msg)
	}
	res.Attempted, res.Failed = max(attempted, 1), failed
	res.Correct = failed == 0
	return res, nil
}

func printMetrics(out io.Writer, title string, ms []metric) {
	fmt.Fprintf(out, "# %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(out, "#   %s\n", m)
	}
}

// reconcile compares the replay's isolated stage sum for the primary
// session with the live produce median.
func reconcile(out io.Writer, live dist, reps []*stageReplay) []metric {
	if len(reps) == 0 {
		return nil
	}
	sum := reps[0].StageSumMS.pct(0.5)
	prod := live.pct(0.5)
	rem := prod - sum
	verdict := "within"
	if prod <= 0 || abs(rem)/prod > reconcileTolerance {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(out, "# reconcile %s: replay stage sum p50 %.3f ms (pool wait inside it p50 %.3f ms) vs live frame.produce_ms.p50 %.3f ms: remainder %.3f ms, %s the %.0f%% tolerance\n",
		reps[0].Role, sum, reps[0].PoolWaitMS.pct(0.5), prod, rem, verdict, 100*reconcileTolerance)
	return []metric{
		{Name: "reconcile.stage_sum_ms", Unit: "ms", Value: sum, N: len(reps[0].StageSumMS), Q: 0.5},
		{Name: "reconcile.remainder_ms", Unit: "ms", Value: rem},
	}
}

// overhead is the traced window's end-to-end figures minus the untraced
// window's.
func overhead(out io.Writer, untraced, traced []metric) []metric {
	get := func(ms []metric, name string) float64 {
		for _, m := range ms {
			if m.Name == name {
				return m.Value
			}
		}
		return 0
	}
	s2p := get(traced, "steer_to_pixels_p50_ms") - get(untraced, "steer_to_pixels_p50_ms")
	fps := get(traced, "frames_per_s") - get(untraced, "frames_per_s")
	fmt.Fprintf(out, "# tracing overhead (traced - untraced): steer_to_pixels_p50 %+.3f ms, frames_per_s %+.3f\n", s2p, fps)
	return []metric{
		{Name: "overhead.steer_to_pixels_p50_ms", Unit: "ms", Value: s2p},
		{Name: "overhead.frames_per_s", Unit: "1/s", Value: fps},
	}
}

func printSelfTimes(out io.Writer, what string, spans []span) {
	lt := layerTimes(spans)
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "# layer self time, %s\n", what)
	for _, n := range names {
		fmt.Fprintf(out, "#   %-10s spans=%-6d total_ms=%-12.3f self_ms=%.3f\n", n, lt[n].Spans, lt[n].TotalMS, lt[n].SelfMS)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
