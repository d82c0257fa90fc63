package eol

// Facade coverage for the Features API: the tri-state spelling, the
// results-neutrality of switching features off, and the speculation
// option's results-neutrality at the public surface.

import (
	"reflect"
	"testing"
)

// locateFig1 runs one localization with extra options and returns the
// diagnosis.
func locateFig1(t *testing.T, opts ...LocateOption) *Diagnosis {
	t.Helper()
	s, faulty, fixed := fig1Session(t)
	root, ok := faulty.FindStatement("read() * 0")
	if !ok {
		t.Fatal("root statement not found")
	}
	all := append([]LocateOption{WithRootCause(root), WithCorrectVersion(fixed)}, opts...)
	diag, err := s.Locate(all...)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Located {
		t.Fatalf("not located:\n%s", diag.Explain())
	}
	return diag
}

// TestWithFeaturesOffResultsNeutral: switching any feature off through
// WithFeatures configures a localization with the same verdict and
// Table 3 counters as the defaults.
func TestWithFeaturesOffResultsNeutral(t *testing.T) {
	def := locateFig1(t)
	for _, tc := range []struct {
		name     string
		features Features
	}{
		{"static_skip", Features{StaticSkip: FeatureOff}},
		{"static_reach", Features{StaticReach: FeatureOff}},
		{"incremental_reprune", Features{IncrementalReprune: FeatureOff}},
		{"checkpoints", Features{Checkpoints: FeatureOff}},
	} {
		off := locateFig1(t, WithFeatures(tc.features))
		if def.Root != off.Root ||
			def.Stats.Verifications != off.Stats.Verifications ||
			def.Stats.UserPrunings != off.Stats.UserPrunings ||
			def.Stats.Iterations != off.Stats.Iterations {
			t.Errorf("%s: feature off diverges from the defaults:\n default: %+v\n off:     %+v",
				tc.name, def.Stats, off.Stats)
		}
	}
}

// TestWithSpeculationResultsNeutral: the speculation feature must not
// change the diagnosis — verdict, counters, and candidate ranking all
// identical; only the Spec* cost counters may differ.
func TestWithSpeculationResultsNeutral(t *testing.T) {
	off := locateFig1(t)
	on := locateFig1(t, WithSpeculation(), WithVerifyCacheSize(0))
	if off.Root != on.Root {
		t.Errorf("root cause %v with speculation, %v without", on.Root, off.Root)
	}
	offStats, onStats := off.Stats, on.Stats
	// Blank the speculation-only counters, then everything else must
	// match field for field.
	onStats.SpecIssued, onStats.SpecHits, onStats.SpecWasted = 0, 0, 0
	offStats.SpecIssued, offStats.SpecHits, offStats.SpecWasted = 0, 0, 0
	// Cache traffic differs run-to-run only via sharing; both runs here
	// use private caches of equal size, so compare them too.
	if !reflect.DeepEqual(offStats, onStats) {
		t.Errorf("stats diverge with speculation:\n off: %+v\n on:  %+v", offStats, onStats)
	}
	if off.Stats.SpecIssued != 0 {
		t.Errorf("speculation-off run issued %d speculative runs", off.Stats.SpecIssued)
	}
}

// TestWithFeaturesOverlayOrder: later WithFeatures calls overlay earlier
// ones field by field, like corpus manifests over corpus defaults.
func TestWithFeaturesOverlayOrder(t *testing.T) {
	var st Settings
	for _, opt := range []LocateOption{
		WithFeatures(Features{StaticSkip: FeatureOff, Speculation: FeatureOn}),
		WithFeatures(Features{StaticSkip: FeatureOn}),
	} {
		opt(&st)
	}
	if st.Features.StaticSkip != FeatureOn {
		t.Errorf("StaticSkip = %v, want on (last call wins)", st.Features.StaticSkip)
	}
	if st.Features.Speculation != FeatureOn {
		t.Errorf("Speculation = %v, want on (earlier call survives default)", st.Features.Speculation)
	}
}
