package vm

import (
	"eol/internal/interp"
	"eol/internal/trace"
)

// Backend is the executor every program run goes through: the failing
// run, profile and reference runs, and every switched or perturbed
// re-execution. It honours the interp run contract byte for byte —
// the same trace entries, outputs, rendered text, step counts, runtime
// error positions, and budget and cancellation steps as interp.Run,
// which the differential tests hold it to. The compiled bytecode is
// cached on the *interp.Compiled, so repeated runs of one program lower
// it exactly once.
var Backend Executor

// Executor runs MiniC programs on the bytecode VM. Its zero value is
// ready to use; Backend is the one instance callers need.
type Executor struct{}

// Run executes the program under opts. A traced run with a *Store in
// opts.Checkpoints captures checkpoints into it.
func (Executor) Run(c *interp.Compiled, opts interp.Options) *interp.Result {
	return run(c, opts)
}

// NewCheckpoints returns an empty checkpoint store bounded to max
// snapshots (<= 0 means DefaultCheckpoints), for use as
// Options.Checkpoints on a traced run.
func (Executor) NewCheckpoints(max int) *Store { return NewStore(max) }

// RunSwitchedFrom is the checkpoint-accelerated switched run: it forks
// from the nearest snapshot in cks at or before the switched predicate
// instance in orig and re-executes only the suffix. It returns nil when
// no snapshot applies (no *Store, no switch plan, predicate not in the
// trace, no snapshot before it, or a budget the fork could not honor);
// the caller then falls back to a full Run.
func (Executor) RunSwitchedFrom(cks interp.Checkpoints, orig *trace.Trace, c *interp.Compiled, opts interp.Options) *interp.Result {
	st, _ := cks.(*Store)
	if st == nil || orig == nil || opts.Switch == nil {
		return nil
	}
	idx := orig.FindInstance(trace.Instance{Stmt: opts.Switch.Stmt, Occ: opts.Switch.Occ})
	if idx < 0 {
		return nil
	}
	ck := st.Nearest(idx)
	if ck == nil {
		return nil
	}
	if opts.StepBudget > 0 && opts.StepBudget <= ck.steps {
		// A full run would exhaust this budget before reaching the
		// checkpoint; forking would misreport the expiry step.
		return nil
	}
	return runFrom(c, ck, opts)
}

// progKey is the Artifact cache key for the compiled bytecode.
var progKey int

// programOf returns c's bytecode, lowering it on first use.
func programOf(c *interp.Compiled) *Program {
	return c.Artifact(&progKey, func() any { return Compile(c) }).(*Program)
}
