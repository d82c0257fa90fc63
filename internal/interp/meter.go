package interp

import "context"

// Checkpoints is the view of a checkpoint store that Options carries: a
// traced run captures execution snapshots into it, and later switched
// runs fork from them (docs/CHECKPOINT.md). The store and the forks
// belong to the bytecode VM (vm.Store, vm.Backend); Run, the
// tree-walking reference, never captures and ignores the field.
type Checkpoints interface {
	// Len returns the number of retained checkpoints.
	Len() int
	// Stats snapshots the store's counters.
	Stats() CheckpointStats
}

// CheckpointStats snapshots a store's counters.
type CheckpointStats struct {
	// Count and Bytes describe the retained checkpoints: how many
	// survived thinning and (approximately) how much private state they
	// pin.
	Count int
	Bytes int64
	// Captured / Thinned count all capture and thinning events over the
	// run, for tuning the store's bound.
	Captured, Thinned int
}

// ---------------------------------------------------------------------------
// Step accounting

// StepMeter centralizes the step-budget and context-poll accounting
// shared by the VM and the tree-walking reference, so its two
// load-bearing invariants hold by construction rather than by copy:
//
//   - the budget check precedes the increment, so the step counter is
//     clamped to exactly the budget on expiry — deadline accounting
//     layered on the counter relies on it never overshooting;
//   - ctx.Err() is polled once per ctxCheckEvery executed statements
//     (a mask on the counter), plus unconditionally on the first tick
//     when forceFirstPoll is set — forked runs inherit a step count
//     that is off the poll grid but must still observe a dead context
//     on their first suffix step.
//
// The counter is shared by pointer so the owning run's Result.Steps is
// always current (checkpoint capture policies read it mid-run).
type StepMeter struct {
	steps    *int
	budget   int
	ctx      context.Context // nil = unbounded
	forceCtx bool
}

// NewStepMeter builds a meter over the given counter. budget must
// already be resolved (> 0); ctx may be nil.
func NewStepMeter(steps *int, budget int, ctx context.Context, forceFirstPoll bool) StepMeter {
	return StepMeter{steps: steps, budget: budget, ctx: ctx, forceCtx: forceFirstPoll}
}

// Tick accounts one statement instance about to execute. It returns
// ErrBudget when the budget is already spent (without incrementing) and
// a cancellation sentinel when a poll observes a dead context; a nil
// return means the statement may proceed.
func (m *StepMeter) Tick() error {
	if *m.steps >= m.budget {
		return ErrBudget
	}
	*m.steps++
	if m.ctx != nil && (m.forceCtx || *m.steps&(ctxCheckEvery-1) == 0) {
		m.forceCtx = false
		if err := m.ctx.Err(); err != nil {
			return CtxErr(err)
		}
	}
	return nil
}

// Budget returns the resolved step budget the meter enforces.
func (m *StepMeter) Budget() int { return m.budget }
