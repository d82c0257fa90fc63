package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"time"

	"eol/internal/align"
	"eol/internal/core"
	"eol/internal/implicit"
	"eol/internal/interp"
	"eol/internal/obs"
	"eol/internal/trace"
	"eol/internal/vm"
)

// spanLayer maps the locator's journal spans (docs/OBSERVABILITY.md) to
// the layer their self time is charged to. A span missing here is
// transparent: its time stays with its nearest listed ancestor, so a
// span added to the program later cannot make the layers stop adding up.
var spanLayer = map[string]string{
	"locate":       "core.locate_self_ms",
	"iteration":    "core.iteration_self_ms",
	"failing_run":  "vm.failing_run_ms",
	"slicing":      "slicing.build_ms",
	"reprune":      "confidence.reprune_ms",
	"verify_batch": "verifyengine.batch_ms",
}

// timingSink is an obs.Observer that timestamps each event on receipt
// and charges every span's self time — its duration minus the time its
// child spans cover — to the span's layer.
type timingSink struct {
	self     map[string]time.Duration
	stack    []openSpan
	reprunes int
	requests int
}

type openSpan struct {
	name     string
	start    time.Time
	children time.Duration
}

func newTimingSink() *timingSink { return &timingSink{self: map[string]time.Duration{}} }

// Event implements obs.Observer.
func (t *timingSink) Event(e obs.Event) {
	if _, ok := spanLayer[e.Name]; !ok {
		return
	}
	now := time.Now()
	switch e.Kind {
	case obs.KindBegin:
		t.stack = append(t.stack, openSpan{name: e.Name, start: now})
		switch e.Name {
		case "reprune":
			t.reprunes++
		case "verify_batch":
			n, _ := strconv.Atoi(e.Attrs["reqs"])
			t.requests += n
		}
	case obs.KindEnd:
		n := len(t.stack) - 1
		if n < 0 || t.stack[n].name != e.Name {
			return // unbalanced stream; the wall-time check reports the loss
		}
		sp := t.stack[n]
		t.stack = t.stack[:n]
		d := now.Sub(sp.start)
		t.self[spanLayer[e.Name]] += d - sp.children
		if n > 0 {
			t.stack[n-1].children += d
		}
	}
}

// timedOracle stands in for the programmer: it forwards to the state
// oracle and keeps the time spent answering, which is not analysis time.
type timedOracle struct {
	core.Oracle
	elapsed time.Duration
	queries int
}

func (o *timedOracle) IsBenign(t *trace.Trace, entry int) bool {
	start := time.Now()
	b := o.Oracle.IsBenign(t, entry)
	o.elapsed += time.Since(start)
	o.queries++
	return b
}

// layerTimes holds one traced localization's per-layer figures.
type layerTimes map[string]float64

// tracedLocate runs one localization of s with the timing sink and the
// timed oracle attached, and returns the report, its wall time and its
// per-layer figures.
func tracedLocate(ctx context.Context, s *subject, rr *runtimeReader) (*core.Report, time.Duration, layerTimes, error) {
	sink := newTimingSink()
	spec := s.spec()
	or := &timedOracle{Oracle: spec.Oracle}
	spec.Oracle = or
	spec.Observer = sink
	rt0 := rr.read()
	start := time.Now()
	rep, err := core.LocateContext(ctx, spec)
	wall := time.Since(start)
	rt1 := rr.read()
	if err != nil {
		return nil, wall, nil, err
	}
	lt := layerTimes{}
	for _, layer := range spanLayer {
		lt[layer] = ms(sink.self[layer])
	}
	lt["confidence.reprune_ms"] -= ms(or.elapsed)
	lt["oracle.ms"] = ms(or.elapsed)
	lt["oracle.queries"] = float64(or.queries)
	lt["confidence.reprunes"] = float64(sink.reprunes)
	lt["verifyengine.requests"] = float64(sink.requests)

	st := &rep.Stats
	lt["core.iterations"] = float64(st.Iterations)
	lt["vm.suffix_steps"] = float64(st.SuffixSteps)
	lt["vm.checkpoint_mb"] = float64(st.CheckpointBytes) / 1e6
	lt["confidence.repropagated"] = float64(st.Repropagated)
	lt["verifyengine.switched_runs"] = float64(st.SwitchedRuns)
	lt["verifyengine.cache_hit_rate"] = st.CacheHitRate()
	lt["verifyengine.static_skips"] = float64(st.StaticSkips)
	lt["verifyengine.static_reach_skips"] = float64(st.StaticReachSkips)
	lt["verifyengine.spec_wasted"] = float64(st.SpecWasted)
	if st.SpecIssued > 0 {
		lt["verifyengine.spec_hit_rate"] = float64(st.SpecHits) / float64(st.SpecIssued)
	} else {
		lt["verifyengine.spec_hit_rate"] = 0
	}
	lt["runtime.gc_cpu_ms"] = (rt1.gcCPU - rt0.gcCPU) * 1e3
	lt["runtime.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	return rep, wall, lt, nil
}

// accounted sums the figures that partition a localization's wall time:
// every span layer's self time plus the oracle's time.
func (lt layerTimes) accounted() float64 {
	sum := lt["oracle.ms"]
	for _, layer := range spanLayer {
		sum += lt[layer]
	}
	return sum
}

// replayState is a subject's failing run on the VM with a checkpoint
// store, from which VerifyLog entries are re-issued.
type replayState struct {
	orig *trace.Trace
	cks  interp.Checkpoints
}

func newReplayState(s *subject) (*replayState, error) {
	cks := vm.Backend.NewCheckpoints(0)
	r := vm.Backend.Run(s.faulty, interp.Options{Input: s.input, BuildTrace: true, Checkpoints: cks})
	if r.Err != nil {
		return nil, fmt.Errorf("%s: failing run: %w", s.name, r.Err)
	}
	return &replayState{orig: r.Trace, cks: cks}, nil
}

// budget is the step budget the verifier gives a switched run.
func budget(orig *trace.Trace) int { return 10*orig.Len() + 1000 }

// reissue re-runs a localization's verifications outside the locator to
// split the verify batches' work into execution and alignment: one
// checkpointed switched run per distinct predicate instance (what the
// engine's run cache shares), then per logged verification the
// alignment of the wrong output and of the use, as VerifyDetailed does.
// Entries the engine's static filters answered without a run are
// re-issued too.
func (rs *replayState) reissue(ctx context.Context, s *subject, rep *core.Report, lt layerTimes) error {
	runs := map[trace.Instance]*interp.Result{}
	var execT, alignT time.Duration
	regions := 0
	b := budget(rs.orig)
	for _, e := range rep.VerifyLog {
		sw, ok := runs[e.Pred]
		if !ok {
			start := time.Now()
			sw = implicit.RunSwitchedFrom(ctx, vm.Backend, s.faulty, s.input, rs.cks, rs.orig, e.Pred, b)
			execT += time.Since(start)
			runs[e.Pred] = sw
		}
		if !sw.SwitchApplied || sw.Trace == nil {
			continue
		}
		use := rs.orig.FindInstance(e.Use)
		if use < 0 {
			return fmt.Errorf("%s: logged use %v not in the failing trace", s.name, e.Use)
		}
		start := time.Now()
		_, _, n := align.MatchCounted(rs.orig, sw.Trace, e.Pred, rep.WrongOutput.Entry)
		regions += n
		if e.Verdict != implicit.StrongID {
			_, _, n = align.MatchCounted(rs.orig, sw.Trace, e.Pred, use)
			regions += n
		}
		alignT += time.Since(start)
	}
	lt["implicit.switched_exec_ms"] = ms(execT)
	lt["align.match_ms"] = ms(alignT)
	lt["align.regions"] = float64(regions)
	return nil
}

// checkStrong is check (c): every StrongID verification, re-run switched
// on the tree-walker reference, prints Vexp at the aligned counterpart
// of the wrong output (Definition 4).
func checkStrong(s *subject, rep *core.Report) error {
	w := rep.WrongOutput
	for _, e := range rep.VerifyLog {
		if e.Verdict != implicit.StrongID {
			continue
		}
		sw := implicit.RunSwitched(s.faulty, s.input, e.Pred, budget(s.failing))
		if sw.Trace == nil || !sw.SwitchApplied {
			return fmt.Errorf("%s: reference switched run of %v did not apply the switch (%v)", s.name, e.Pred, sw.Err)
		}
		o, ok, _ := align.MatchCounted(s.failing, sw.Trace, e.Pred, w.Entry)
		if !ok {
			return fmt.Errorf("%s: strong verification of %v: wrong output has no counterpart", s.name, e.Pred)
		}
		found := false
		for _, out := range sw.Trace.OutputsOf(o) {
			if out.Arg == w.Arg && out.Value == rep.Vexp {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("%s: strong verification of %v does not print vexp %d at the aligned output", s.name, e.Pred, rep.Vexp)
		}
	}
	return nil
}

// perLayer lists the traced run's metrics, each the mean per traced
// localization (README.md says which end-to-end metric each should move).
var perLayer = []struct{ name, unit string }{
	{"core.locate_self_ms", "ms"},
	{"core.iteration_self_ms", "ms"},
	{"core.iterations", "count"},
	{"vm.failing_run_ms", "ms"},
	{"vm.suffix_steps", "count"},
	{"vm.checkpoint_mb", "MB"},
	{"slicing.build_ms", "ms"},
	{"confidence.reprune_ms", "ms"},
	{"confidence.reprunes", "count"},
	{"confidence.repropagated", "count"},
	{"oracle.ms", "ms"},
	{"oracle.queries", "count"},
	{"verifyengine.batch_ms", "ms"},
	{"verifyengine.requests", "count"},
	{"verifyengine.switched_runs", "count"},
	{"verifyengine.cache_hit_rate", "ratio"},
	{"verifyengine.static_skips", "count"},
	{"verifyengine.static_reach_skips", "count"},
	{"verifyengine.spec_hit_rate", "ratio"},
	{"verifyengine.spec_wasted", "count"},
	{"implicit.switched_exec_ms", "ms"},
	{"align.match_ms", "ms"},
	{"align.regions", "count"},
	{"runtime.gc_cpu_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"api.decode_ms", "ms"},
	{"api.encode_ms", "ms"},
	{"corpus.run_ms", "ms"},
	{"corpus.reference_run_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"trace.locate_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.unaccounted_ms", "ms"},
}

// addMargin bounds the share of the traced wall time that the per-layer
// self times plus the oracle's time may leave unaccounted.
const addMargin = 0.02

// measureTraced runs the traced loop: each operation is one traced
// localization, then (outside its wall time) the re-issue of its
// verifications, check (c) and the wire decomposition of the subject's
// request. It returns the phase and the per-layer means.
func measureTraced(ctx context.Context, e *env, rng *rand.Rand, d time.Duration, short bool) (*phase, map[string]float64) {
	p := newPhase()
	rr := newRuntimeReader()
	sums := map[string]float64{}
	var wallSum, accSum float64
	n := 0
	start := time.Now()
	rounds(e.subjects, rng, d, short, func(s *subject) {
		p.ops++
		rep, wall, lt, err := tracedLocate(ctx, s, rr)
		if err != nil {
			p.fail(fmt.Errorf("%s: %w", s.name, err), false)
			return
		}
		err = s.checkReport(rep)
		if err == nil {
			err = e.replay[s].reissue(ctx, s, rep, lt)
		}
		if err == nil {
			err = checkStrong(s, rep)
		}
		if err == nil {
			err = e.wire(ctx, s, lt)
		}
		if err != nil {
			p.fail(err, true)
			return
		}
		p.wall[s] = append(p.wall[s], ms(wall))
		for k, v := range lt {
			sums[k] += v
		}
		wallSum += ms(wall)
		accSum += lt.accounted()
		n++
	})
	p.elapsed = time.Since(start)
	layers := map[string]float64{}
	if n == 0 {
		return p, layers
	}
	for k, v := range sums {
		layers[k] = v / float64(n)
	}
	layers["trace.locate_ms"] = p.locateMS(e.subjects)
	layers["trace.unaccounted_ms"] = (wallSum - accSum) / float64(n)
	if math.Abs(wallSum-accSum) > addMargin*wallSum {
		p.correct = false
		p.errors = append(p.errors, fmt.Sprintf("per-layer times plus oracle time (%.3f ms) miss the traced wall time (%.3f ms) by more than %.0f%%",
			accSum/float64(n), wallSum/float64(n), addMargin*100))
	}
	return p, layers
}
