package core_test

// Speculation A/B coverage: Locate with Features.Speculation on must be
// observationally identical to Locate with it off — verdict, Table 3
// counters, VerifyLog, IPS ranking, and the byte-level obs journal —
// across worker and cache configurations. This is the hard
// guarantee that lets speculation ship enabled without perturbing the
// paper's reproducible numbers: only Stats.SpecIssued/SpecHits/SpecWasted
// (never journal gauges) may differ.

import (
	"bytes"
	"testing"

	"eol/internal/bench"
	"eol/internal/core"
)

// speculationConfigs is the configuration matrix the A/B comparison
// sweeps: workers 1/8 × cache off/on. The cache-off rows pin the
// degenerate case — speculation has nowhere to land results and must be
// a silent no-op.
var speculationConfigs = []struct {
	label            string
	workers, cacheSz int
}{
	{"workers=1/nocache", 1, -1},
	{"workers=1/cache", 1, 0},
	{"workers=8/nocache", 8, -1},
	{"workers=8/cache", 8, 0},
}

func withSpeculation(spec *core.Spec, on bool) *core.Spec {
	if on {
		spec.Features.Speculation = core.FeatureOn
	}
	return spec
}

// TestSpeculationDeterminismFig1: speculation on vs off on the Figure 1
// problem, with journal byte-comparison, across the matrix.
func TestSpeculationDeterminismFig1(t *testing.T) {
	for _, cfg := range speculationConfigs {
		offSpec := fig1DetSpec(t)
		offSpec.VerifyWorkers, offSpec.VerifyCacheSize = cfg.workers, cfg.cacheSz

		onSpec := withSpeculation(fig1DetSpec(t), true)
		onSpec.VerifyWorkers, onSpec.VerifyCacheSize = cfg.workers, cfg.cacheSz

		offRep, offJournal := locateJournaled(t, offSpec)
		onRep, onJournal := locateJournaled(t, onSpec)
		if !offRep.Located {
			t.Fatalf("%s: baseline did not locate", cfg.label)
		}
		assertSameOutcome(t, cfg.label+"/spec-on-vs-off", offRep, onRep)
		if !bytes.Equal(offJournal, onJournal) {
			t.Errorf("%s: journal bytes diverged with speculation\n%s",
				cfg.label, diffLine(offJournal, onJournal))
		}
		if offRep.Stats.SpecIssued != 0 || offRep.Stats.SpecHits != 0 {
			t.Errorf("%s: speculation-off run reports SpecIssued=%d SpecHits=%d",
				cfg.label, offRep.Stats.SpecIssued, offRep.Stats.SpecHits)
		}
		if cfg.cacheSz < 0 && onRep.Stats.SpecIssued != 0 {
			t.Errorf("%s: cacheless run issued %d speculative runs",
				cfg.label, onRep.Stats.SpecIssued)
		}
	}
}

// TestSpeculationDeterminismBench: the same A/B on the multi-round
// benchmark cases — the subjects where prediction has rounds to work
// with — and proof that speculation actually fires (SpecIssued > 0) and
// lands (SpecHits > 0) somewhere in the suite.
func TestSpeculationDeterminismBench(t *testing.T) {
	var issued, hits int64
	for _, name := range []string{"grepsim/V4-F2", "sedsim/V3-F2", "sedsim/V3-F3"} {
		c := bench.ByName(name)
		if c == nil {
			t.Fatalf("unknown case %s", name)
		}
		for _, workers := range []int{1, 8} {
			pOff, err := c.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			pOn, err := c.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			offSpec := pOff.Spec()
			offSpec.VerifyWorkers, offSpec.VerifyCacheSize = workers, 0
			onSpec := withSpeculation(pOn.Spec(), true)
			onSpec.VerifyWorkers, onSpec.VerifyCacheSize = workers, 0

			label := name + "/workers=" + string(rune('0'+workers))
			offRep, offJournal := locateJournaled(t, offSpec)
			onRep, onJournal := locateJournaled(t, onSpec)
			if !offRep.Located {
				t.Fatalf("%s: baseline did not locate", label)
			}
			assertSameOutcome(t, label+"/spec-on-vs-off", offRep, onRep)
			if !bytes.Equal(offJournal, onJournal) {
				t.Errorf("%s: journal bytes diverged with speculation\n%s",
					label, diffLine(offJournal, onJournal))
			}
			issued += onRep.Stats.SpecIssued
			hits += onRep.Stats.SpecHits
			if w := onRep.Stats.SpecIssued - onRep.Stats.SpecHits; onRep.Stats.SpecWasted != max64(0, w) {
				t.Errorf("%s: SpecWasted=%d, want %d", label, onRep.Stats.SpecWasted, max64(0, w))
			}
		}
	}
	if issued == 0 {
		t.Error("speculation never issued a run on the multi-round benchmarks")
	}
	if hits == 0 {
		t.Error("speculation never hit on the multi-round benchmarks")
	}
}

// TestSpeculationIssuedDeterministic: for a fixed configuration the set
// of issued speculative keys is registered synchronously on the locator
// goroutine, so SpecIssued itself is reproducible run to run (SpecHits
// can vary only when the cache is shared across localizations, which a
// private per-Locate cache is not).
func TestSpeculationIssuedDeterministic(t *testing.T) {
	c := bench.ByName("grepsim/V4-F2")
	if c == nil {
		t.Fatal("unknown case grepsim/V4-F2")
	}
	var first *core.Report
	for i := 0; i < 3; i++ {
		p, err := c.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		spec := withSpeculation(p.Spec(), true)
		rep := locateConfigured(t, spec, 4, 0)
		if first == nil {
			first = rep
			continue
		}
		if rep.Stats.SpecIssued != first.Stats.SpecIssued {
			t.Fatalf("run %d: SpecIssued=%d, first run had %d",
				i, rep.Stats.SpecIssued, first.Stats.SpecIssued)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
