package core_test

// A/B coverage for the SPDG static reach filter: every observable output
// of Locate — verdict, Table 3 counters, VerifyLog, IPS ranking — must be
// identical with the filter on and off, across worker/cache/checkpoint
// configurations; only the run-accounting counters (SwitchedRuns,
// StaticReachSkips) may differ, and on the filtered side they must show
// the filter actually fired. The subjects are the element-disjointness
// programs of testdata/corpus/staticreach.json: a symbol-level candidate
// generator pairs their decoy predicates with constant-index array uses
// the predicates provably cannot reach (docs/STATICDEP.md).

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eol/internal/core"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/oracle"
)

// staticReachSpec builds a Spec from one of the staticreach corpus
// subject file pairs, with the state oracle and root-cause marker the
// corpus driver would derive.
func staticReachSpec(t *testing.T, base, rootFrag string, crossFn bool) *core.Spec {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "corpus")
	load := func(name string) *interp.Compiled {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		c, err := interp.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return c
	}
	faulty := load(base + ".mc")
	fixed := load(base + "_fixed.mc")
	input := []int64{5}
	corRun := interp.Run(fixed, interp.Options{Input: input, BuildTrace: true})
	if corRun.Err != nil {
		t.Fatalf("correct run: %v", corRun.Err)
	}
	var root []int
	for _, s := range faulty.Info.Stmts {
		if strings.Contains(ast.StmtString(s), rootFrag) {
			root = append(root, s.ID())
		}
	}
	if len(root) == 0 {
		t.Fatalf("no statement matches root frag %q", rootFrag)
	}
	return &core.Spec{
		Program:         faulty,
		Input:           input,
		Expected:        corRun.OutputValues(),
		Oracle:          &oracle.StateOracle{Correct: corRun.Trace},
		RootCause:       root,
		CrossFunctionPD: crossFn,
	}
}

var staticReachSubjects = []struct {
	name, base, root string
	crossFn          bool
}{
	{"elem", "staticreach_elem", "buf[1] > 100", false},
	{"cross", "staticreach_cross", "v > 90", true},
}

// TestStaticReachAB: filter on vs off across engine configurations.
func TestStaticReachAB(t *testing.T) {
	for _, sub := range staticReachSubjects {
		t.Run(sub.name, func(t *testing.T) {
			offSpec := staticReachSpec(t, sub.base, sub.root, sub.crossFn)
			offSpec.Features.StaticReach = core.FeatureOff
			offSpec.VerifyWorkers, offSpec.VerifyCacheSize = 1, -1
			off, offJournal := locateJournaled(t, offSpec)
			if !off.Located {
				t.Fatal("baseline did not locate")
			}
			if off.Stats.StaticReachSkips != 0 {
				t.Fatalf("filter disabled, yet %d static reach skips", off.Stats.StaticReachSkips)
			}

			var baseJournal []byte
			for _, cfg := range []struct {
				label            string
				workers, cacheSz int
				checkpoints      int
			}{
				{"workers=1/nocache", 1, -1, 0},
				{"workers=1/nocache/nockpt", 1, -1, -1},
				{"workers=8/nocache", 8, -1, 0},
				{"workers=8/cache", 8, 0, 0},
			} {
				spec := staticReachSpec(t, sub.base, sub.root, sub.crossFn)
				spec.VerifyWorkers, spec.VerifyCacheSize = cfg.workers, cfg.cacheSz
				spec.Checkpoints = cfg.checkpoints

				on, onJournal := locateJournaled(t, spec)
				assertSameOutcome(t, sub.name+"/"+cfg.label, off, on)
				if on.Stats.StaticReachSkips == 0 {
					t.Errorf("%s: static reach filter never fired", cfg.label)
				}
				// The reach filter is consulted before the replay filter, so
				// it may claim candidates the replay filter would otherwise
				// skip — but never invent or lose any: the total of runs and
				// skips of both kinds is invariant.
				if on.Stats.StaticSkips > off.Stats.StaticSkips {
					t.Errorf("%s: replay skips grew from %d to %d with the reach filter on",
						cfg.label, off.Stats.StaticSkips, on.Stats.StaticSkips)
				}
				got := on.Stats.SwitchedRuns + on.Stats.StaticReachSkips + on.Stats.StaticSkips
				want := off.Stats.SwitchedRuns + off.Stats.StaticReachSkips + off.Stats.StaticSkips
				if cfg.cacheSz == -1 && got != want {
					t.Errorf("%s: runs+skips = %d, want %d (each skip must replace exactly one switched run)",
						cfg.label, got, want)
				}
				// Journal bytes are scheduling-independent: every filtered
				// uncached config must produce the same journal regardless
				// of workers or checkpoints. (Cache hits legitimately move
				// the runs gauge, as in the checkpoint A/B.)
				if cfg.cacheSz == -1 {
					if baseJournal == nil {
						baseJournal = onJournal
					} else if !bytes.Equal(onJournal, baseJournal) {
						t.Errorf("%s: journal bytes diverged across engine configurations", cfg.label)
					}
				}
			}
			_ = offJournal // differs from baseJournal only in run-accounting gauges; see TestStaticReachJournalNoFire
		})
	}
}

// TestStaticReachJournalNoFire: on a subject where the filter finds
// nothing to prove (Figure 1 — every array index is loop-variant), the
// journal must be byte-identical with the filter on and off: consulting
// the SPDG must be observationally free.
func TestStaticReachJournalNoFire(t *testing.T) {
	onSpec := fig1DetSpec(t)
	on, onJournal := locateJournaled(t, onSpec)
	if on.Stats.StaticReachSkips != 0 {
		t.Fatalf("expected no static reach skips on Figure 1, got %d", on.Stats.StaticReachSkips)
	}
	offSpec := fig1DetSpec(t)
	offSpec.Features.StaticReach = core.FeatureOff
	off, offJournal := locateJournaled(t, offSpec)
	assertSameOutcome(t, "fig1/on-vs-off", off, on)
	if !bytes.Equal(onJournal, offJournal) {
		t.Error("journal bytes diverged between filter on and off with zero fires")
	}
}
