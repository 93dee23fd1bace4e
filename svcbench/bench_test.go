package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestReflectionRule(t *testing.T) {
	ms := func(v float64) int64 { return int64(v * 1e6) }
	frames := []frameStart{{Seq: 1, Start: ms(1)}, {Seq: 2, Start: ms(2)}, {Seq: 3, Start: ms(3)}}
	watcher := []receipt{{Seq: 1, At: ms(2.5)}, {Seq: 2, At: ms(3.1)}, {Seq: 3, At: ms(4.2)}}

	// Frame 1 started before the ack, so its later delivery never counts.
	if at, seq, ok := reflection(ms(1.5), frames, [][]receipt{watcher}); !ok || seq != 2 || at != ms(3.1) {
		t.Errorf("ack 1.5ms: got (%v, %d, %v), want frame 2 at 3.1ms", at, seq, ok)
	}
	// A frame starting within the guard after the ack may have read the
	// state before the steer landed, so it does not count either.
	if _, seq, ok := reflection(ms(2)-reflectGuardNS/2, frames, [][]receipt{watcher}); !ok || seq != 3 {
		t.Errorf("ack just before frame 2: got seq %d, want 3", seq)
	}
	// No frame started after the ack: unreflected.
	if _, _, ok := reflection(ms(3.5), frames, [][]receipt{watcher}); ok {
		t.Error("ack after the last frame start reported as reflected")
	}
	// A watcher that skipped the first reflecting frame is reflected by the
	// next one it holds; the earliest watcher wins.
	skipper := []receipt{{Seq: 1, At: ms(1.2)}, {Seq: 3, At: ms(3.6)}}
	fast := []receipt{{Seq: 2, At: ms(2.9)}}
	if at, seq, ok := reflection(ms(1.5), frames, [][]receipt{skipper}); !ok || seq != 3 || at != ms(3.6) {
		t.Errorf("skipping watcher: got (%v, %d, %v), want frame 3 at 3.6ms", at, seq, ok)
	}
	if at, _, _ := reflection(ms(1.5), frames, [][]receipt{skipper, fast}); at != ms(2.9) {
		t.Errorf("two watchers: got %v, want the earlier 2.9ms", at)
	}
}

// TestScheduleDeterministic checks that the seed alone fixes every input:
// steers (with their isovalues), churn, remeasures and the slow-viewer
// draw, and that the rates give each percentile its samples.
func TestScheduleDeterministic(t *testing.T) {
	window := 20 * time.Second
	for _, w := range workloads {
		a := buildSchedule(w, 7, window)
		if b := buildSchedule(w, 7, window); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w.Name)
		}
		if c := buildSchedule(w, 8, window); reflect.DeepEqual(a.Steers, c.Steers) || reflect.DeepEqual(a.Starts, c.Starts) {
			t.Errorf("%s: seeds 7 and 8 gave the same steers or starts", w.Name)
		}
		for seed := int64(1); seed <= 50; seed++ {
			sc := buildSchedule(w, seed, window)
			if len(sc.Steers) < 100 || len(sc.Starts) < 40 {
				t.Errorf("%s seed %d: %d steers, %d starts; want >= 100 and >= 40",
					w.Name, seed, len(sc.Steers), len(sc.Starts))
			}
		}
		isos := map[int]map[float64]bool{}
		for _, op := range a.Steers {
			if isos[op.Session] == nil {
				isos[op.Session] = map[float64]bool{}
			}
			isos[op.Session][op.Form.Isovalue] = true
		}
		for s, set := range isos {
			if len(set) > steerIsos+1 { // the initial value plus the seeded set
				t.Errorf("%s session %d: isovalues do not cycle over a small set: %v", w.Name, s, set)
			}
		}
		for i, op := range a.Starts {
			want := w.StartShapes[i%len(w.StartShapes)]
			if op.Req.NX != want.NX || op.Req.Simulator != want.Simulator {
				t.Errorf("%s start %d: shape %+v, want %+v", w.Name, i, op.Req, want)
			}
		}
		for i, spec := range w.Sessions {
			slow := 0
			for _, s := range a.Slow[i] {
				if s {
					slow++
				}
			}
			n := 0
			for _, c := range spec.InProc {
				if c > 0 {
					n++
				}
			}
			if slow != n*spec.SlowPerTier {
				t.Errorf("%s session %d: %d slow viewers, want %d", w.Name, i, slow, n*spec.SlowPerTier)
			}
		}
	}
}

// TestSmokeEveryMetric runs every workload briefly, untraced and traced, and
// checks that each metric BENCHMARK.json names is emitted with its unit and
// that the run's checks pass.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live service")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	opts := runOpts{Setups: 1, SpanDir: t.TempDir()}
	for _, wl := range spec.Workloads {
		w, err := findWorkload(wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res, err := run(w, 3, time.Second, traced, io.Discard, opts)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			// Under the race detector frames take seconds, so steers miss
			// their reflection deadline; the metric checks still apply.
			if (!res.Correct && !raceEnabled) || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			got := map[string]string{}
			for _, m := range res.Metrics {
				got[m.Name] = m.Unit
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, unit, m.Unit)
				}
			}
		}
	}
}
