package vm

import (
	"context"
	"errors"
	"testing"

	"eol/internal/cfg"
	"eol/internal/interp"
	"eol/internal/trace"
)

// ckSrc exercises every construct checkpointing interacts with: globals,
// arrays (shared COW storage), helper calls (frames that never capture),
// nested while/for loops, else-if chains, break, and interleaved output.
const ckSrc = `
var acc[4];
var total;
func bump(i, v) {
    var j = i % 4;
    acc[j] += v;
    total += v;
    return acc[j];
}
func main() {
    var n = 0;
    while (!eof()) {
        var v = read();
        if (v % 3 == 0) {
            bump(n, v);
        } else if (v % 3 == 1) {
            for (var k = 0; k < v % 5; k++) {
                bump(k, 1);
            }
        } else {
            if (v > 50) { break; }
            total -= 1;
        }
        n++;
        print(n, " ", total);
    }
    print(total, " ", acc[0], " ", acc[1], " ", acc[2], " ", acc[3]);
}`

// pollEvery is the step-meter's context-poll stride (interp's
// ctxCheckEvery).
const pollEvery = 1024

func ckInput() []int64 {
	var in []int64
	for i := 0; i < 40; i++ {
		in = append(in, int64((i*7+3)%47))
	}
	return in
}

// capturedRun runs src on the VM with a checkpoint store attached and
// returns both.
func capturedRun(t *testing.T, src string, input []int64, max int) (*interp.Compiled, *interp.Result, *Store) {
	t.Helper()
	c := interp.MustCompile(src)
	st := Backend.NewCheckpoints(max)
	r := Backend.Run(c, interp.Options{Input: input, BuildTrace: true, Checkpoints: st})
	if r.Err != nil {
		t.Fatalf("captured run: %v", r.Err)
	}
	return c, r, st
}

// predicateInstances lists the trace indices of all predicate entries.
func predicateInstances(tr *trace.Trace) []int {
	var preds []int
	for i := 0; i < tr.Len(); i++ {
		if tr.At(i).Branch != cfg.None {
			preds = append(preds, i)
		}
	}
	return preds
}

// compareFork checks a forked run against the full reference run with
// the same options: identical in everything but ResumedAt, which must
// be the checkpoint's step count.
func compareFork(t *testing.T, ck *checkpoint, full, fork *interp.Result) {
	t.Helper()
	if fork.ResumedAt != ck.steps {
		t.Fatalf("ck@%d: ResumedAt = %d", ck.steps, fork.ResumedAt)
	}
	full.ResumedAt = fork.ResumedAt
	compareResults(t, full, fork)
}

// TestRunFromMatchesFullRun is the core differential: for every retained
// checkpoint and a spread of switched predicates at or after it, the
// forked run must be byte-identical to a full switched run of the
// tree-walking reference.
func TestRunFromMatchesFullRun(t *testing.T) {
	c, orig, st := capturedRun(t, ckSrc, ckInput(), 0)
	if st.Len() < 3 {
		t.Fatalf("want >= 3 checkpoints, got %d", st.Len())
	}
	preds := predicateInstances(orig.Trace)
	compared := 0
	for _, ck := range st.cks {
		var targets []int
		for _, p := range preds {
			if p >= ck.prefix.Len() {
				targets = append(targets, p)
			}
		}
		if len(targets) == 0 {
			continue
		}
		for _, p := range []int{targets[0], targets[len(targets)/2], targets[len(targets)-1]} {
			inst := orig.Trace.At(p).Inst
			opts := interp.Options{Input: ckInput(), BuildTrace: true, Switch: &interp.SwitchPlan{Stmt: inst.Stmt, Occ: inst.Occ}}
			compareFork(t, ck, interp.Run(c, opts), runFrom(c, ck, opts))
			compared++
		}
	}
	if compared < 10 {
		t.Errorf("only %d fork/full comparisons ran; test subject too small", compared)
	}
}

// TestCheckpointCaptureIsObservablyFree: attaching a store must not
// change the run it captures from, and the capture schedule must be
// deterministic.
func TestCheckpointCaptureIsObservablyFree(t *testing.T) {
	c, withStore, st := capturedRun(t, ckSrc, ckInput(), 0)
	compareResults(t, interp.Run(c, interp.Options{Input: ckInput(), BuildTrace: true}), withStore)
	compareResults(t, Backend.Run(c, interp.Options{Input: ckInput(), BuildTrace: true}), withStore)

	_, _, st2 := capturedRun(t, ckSrc, ckInput(), 0)
	if st.Len() != st2.Len() {
		t.Fatalf("checkpoint count diverged across runs: %d vs %d", st.Len(), st2.Len())
	}
	for i := range st.cks {
		if st.cks[i].steps != st2.cks[i].steps {
			t.Errorf("checkpoint %d at step %d vs %d", i, st.cks[i].steps, st2.cks[i].steps)
		}
	}
}

// TestCheckpointStoreThinning: the stride-doubling policy respects the
// max bound and keeps checkpoints in ascending step order.
func TestCheckpointStoreThinning(t *testing.T) {
	src := `func main() { var s = 0; for (var i = 0; i < 2000; i++) { if (i % 2 == 0) { s += i; } } print(s); }`
	_, _, st := capturedRun(t, src, nil, 8)
	stats := st.Stats()
	if stats.Count > 8 || stats.Count == 0 {
		t.Errorf("Count = %d, want in [1, 8]", stats.Count)
	}
	if stats.Thinned == 0 || stats.Captured <= stats.Count {
		t.Errorf("thinning never fired: %+v", stats)
	}
	if stats.Bytes <= 0 {
		t.Errorf("Bytes = %d, want > 0", stats.Bytes)
	}
	for i := 1; i < len(st.cks); i++ {
		if st.cks[i].steps <= st.cks[i-1].steps {
			t.Fatalf("checkpoints out of order at %d", i)
		}
	}
}

// TestNearest: binary search boundaries.
func TestNearest(t *testing.T) {
	_, _, st := capturedRun(t, ckSrc, ckInput(), 0)
	first := st.cks[0]
	if got := st.Nearest(first.prefix.Len() - 1); got != nil {
		t.Errorf("Nearest before the first checkpoint = ck@%d, want nil", got.steps)
	}
	if got := st.Nearest(first.prefix.Len()); got != first {
		t.Errorf("Nearest at the first checkpoint's own index must return it")
	}
	last := st.cks[st.Len()-1]
	if got := st.Nearest(1 << 30); got != last {
		t.Errorf("Nearest far past the end = ck@%d, want the last ck@%d", got.steps, last.steps)
	}
	for _, ck := range st.cks {
		if got := st.Nearest(ck.prefix.Len()); got != ck {
			t.Errorf("Nearest(%d) skipped the exact checkpoint", ck.prefix.Len())
		}
	}
}

// TestRunFromBudgetExhaustion: a budget that expires mid-suffix must
// fail exactly like a full run — ErrBudget with Steps clamped to the
// budget — because the fork inherits the checkpoint's step count.
func TestRunFromBudgetExhaustion(t *testing.T) {
	c, orig, st := capturedRun(t, ckSrc, ckInput(), 0)
	ck := st.cks[st.Len()/2]
	// Find a switch target whose switched run lasts well past the
	// checkpoint (a switch can shorten the run, e.g. by forcing a break).
	var plan *interp.SwitchPlan
	var budget int
	for _, p := range predicateInstances(orig.Trace) {
		if p < ck.prefix.Len() {
			continue
		}
		inst := orig.Trace.At(p).Inst
		cand := &interp.SwitchPlan{Stmt: inst.Stmt, Occ: inst.Occ}
		sw := interp.Run(c, interp.Options{Input: ckInput(), Switch: cand})
		if sw.Err == nil && sw.Steps > ck.steps+4 {
			plan = cand
			budget = ck.steps + (sw.Steps-ck.steps)/2
			break
		}
	}
	if plan == nil {
		t.Fatal("no switch target with a long enough switched run")
	}
	opts := interp.Options{Input: ckInput(), BuildTrace: true, Switch: plan, StepBudget: budget}
	want := interp.Run(c, opts)
	if !errors.Is(want.Err, interp.ErrBudget) || want.Steps != budget {
		t.Fatalf("full run: err = %v steps = %d, want ErrBudget at %d", want.Err, want.Steps, budget)
	}
	compareFork(t, ck, want, runFrom(c, ck, opts))

	// A budget at or below the checkpoint cannot be honored by a fork:
	// RunSwitchedFrom must refuse and leave the caller on the full-run
	// path.
	opts.StepBudget = ck.steps
	if r := Backend.RunSwitchedFrom(st, orig.Trace, c, opts); r != nil {
		t.Errorf("RunSwitchedFrom honored an already-spent budget")
	}
}

// TestRunFromDeadlineMidSuffix: periodic context checks keep firing on
// the inherited step grid during a forked suffix.
func TestRunFromDeadlineMidSuffix(t *testing.T) {
	src := `func main() { var s = 0; for (var i = 0; i < 3000; i++) { if (i % 2 == 0) { s += i; } } print(s); }`
	c, orig, st := capturedRun(t, src, nil, 0)
	ck := st.cks[0]
	inst := orig.Trace.At(orig.Trace.Len() - 2).Inst // a late entry; the switch plan need not apply
	// Survive the fork's entry check (call 1) and the forced first-step
	// check (call 2); die at the first periodic check after that.
	ctx := &countdownCtx{Context: context.Background(), left: 2}
	got := runFrom(c, ck, interp.Options{Switch: &interp.SwitchPlan{Stmt: inst.Stmt, Occ: inst.Occ}, Ctx: ctx})
	if !errors.Is(got.Err, interp.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", got.Err)
	}
	if got.Steps%pollEvery != 0 {
		t.Errorf("Steps = %d: mid-suffix abort must land on the %d-step check grid", got.Steps, pollEvery)
	}
	if got.Steps <= ck.steps+1 || got.Steps >= orig.Steps {
		t.Errorf("Steps = %d, want strictly inside the suffix (%d, %d)", got.Steps, ck.steps+1, orig.Steps)
	}

	// Already-dead context: the fork mirrors Run's entry contract — no
	// partial suffix, cancellation reported immediately.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	r := runFrom(c, ck, interp.Options{Ctx: dead})
	if !errors.Is(r.Err, interp.ErrCanceled) {
		t.Errorf("dead ctx: err = %v, want ErrCanceled", r.Err)
	}
	if r.Steps != ck.steps || r.Trace != nil {
		t.Errorf("dead ctx: Steps = %d Trace = %v, want inherited steps and no trace", r.Steps, r.Trace)
	}
}

// TestForkedRunFirstStepCtxCheck pins the forced first poll: a forked
// run inherits an arbitrary step count, so its first suffix step sits
// off the poll grid — yet it must still observe a context that dies
// between the fork's entry check and that first step. Without the
// forced check, a short suffix (< pollEvery steps) would never poll the
// context at all and run to completion.
func TestForkedRunFirstStepCtxCheck(t *testing.T) {
	src := `func main() {
	    var s = 0;
	    for (var i = 0; i < 40; i++) { if (i % 2 == 0) { s += i; } }
	    print(s);
	}`
	c, full, st := capturedRun(t, src, nil, 0)
	if full.Steps >= pollEvery {
		t.Fatalf("subject too large (%d steps): periodic checks would mask the forced one", full.Steps)
	}
	if st.Len() == 0 {
		t.Fatal("no checkpoints captured")
	}
	ck := st.cks[st.Len()/2]
	r := runFrom(c, ck, interp.Options{Ctx: &countdownCtx{Context: context.Background(), left: 1}})
	if !interp.IsCancellation(r.Err) {
		t.Fatalf("err = %v, want a cancellation", r.Err)
	}
	if r.Steps != ck.steps+1 {
		t.Errorf("Steps = %d, want %d (abort on the first suffix step)", r.Steps, ck.steps+1)
	}
}

// TestRunSwitchedFromFallbacks: RunSwitchedFrom declines exactly
// when a fork cannot honor the request.
func TestRunSwitchedFromFallbacks(t *testing.T) {
	c, orig, st := capturedRun(t, ckSrc, ckInput(), 0)
	opts := interp.Options{Input: ckInput(), Switch: &interp.SwitchPlan{Stmt: 1, Occ: 99999}}
	if r := Backend.RunSwitchedFrom(st, orig.Trace, c, opts); r != nil {
		t.Errorf("unknown instance: got a run, want nil")
	}
	preds := predicateInstances(orig.Trace)
	late := orig.Trace.At(preds[len(preds)-1]).Inst
	opts.Switch = &interp.SwitchPlan{Stmt: late.Stmt, Occ: late.Occ}
	if r := Backend.RunSwitchedFrom(nil, orig.Trace, c, opts); r != nil {
		t.Errorf("nil store: got a run, want nil")
	}
	if r := Backend.RunSwitchedFrom(st, orig.Trace, c, interp.Options{Input: ckInput()}); r != nil {
		t.Errorf("no switch plan: got a run, want nil")
	}
	if r := Backend.RunSwitchedFrom(st, orig.Trace, c, opts); r == nil {
		t.Errorf("late predicate: no fork, want one")
	}
	// A predicate before the first checkpoint has no usable prefix.
	if st.cks[0].prefix.Len() > 0 {
		inst := orig.Trace.At(0).Inst
		opts.Switch = &interp.SwitchPlan{Stmt: inst.Stmt, Occ: inst.Occ}
		if r := Backend.RunSwitchedFrom(st, orig.Trace, c, opts); r != nil {
			t.Errorf("pre-checkpoint predicate: got a run, want nil")
		}
	}
}
