package core

import (
	"fmt"
	"sort"
)

// FeatureMode is a tri-state switch for one optional engine feature.
// FeatureDefault selects the built-in default (for Checkpoints, the sign
// of Spec.Checkpoints); FeatureOn and FeatureOff force the feature.
type FeatureMode uint8

const (
	FeatureDefault FeatureMode = iota
	FeatureOn
	FeatureOff
)

// String renders the wire spelling: "default", "on", "off".
func (m FeatureMode) String() string {
	switch m {
	case FeatureOn:
		return "on"
	case FeatureOff:
		return "off"
	}
	return "default"
}

// ParseFeatureMode parses the wire spelling. The empty string reads as
// FeatureDefault, so map-valued wire fields can omit a value.
func ParseFeatureMode(s string) (FeatureMode, error) {
	switch s {
	case "", "default":
		return FeatureDefault, nil
	case "on":
		return FeatureOn, nil
	case "off":
		return FeatureOff, nil
	}
	return FeatureDefault, fmt.Errorf("unknown feature mode %q (want on, off or default)", s)
}

// Features selects the locator's optional engine features; it is the
// only on/off surface for them. Each field is a tri-state, and a zero
// Features selects every built-in default.
//
// Every feature is results-neutral: Report counters, VerifyLog and the
// obs journal are byte-identical whatever the switches — only cost
// counters and wall-clock time change (see the field docs on Spec).
type Features struct {
	// StaticSkip is the trace-replay skip filter (check.SwitchFilter),
	// which proves some verifications NOT_ID from the failing trace
	// alone and answers them without a switched re-execution. It moves
	// only Stats.SwitchedRuns and StaticSkips. Unsound under PathMode
	// and forced off there. On by default.
	StaticSkip FeatureMode
	// StaticReach is the SPDG pre-execution reach filter
	// (check.StaticReachFilter), which proves some verifications NOT_ID
	// from the static program dependence graph alone. It moves only
	// Stats.SwitchedRuns and StaticReachSkips. Unsound under PathMode
	// and forced off there. On by default.
	StaticReach FeatureMode
	// IncrementalReprune is delta re-propagation in confidence
	// analysis: each PruneSlicing pass re-propagates only the cone
	// invalidated since the previous pass instead of the whole graph.
	// It moves only Stats.Repropagated/DirtyFraction. On by default.
	IncrementalReprune FeatureMode
	// Checkpoints is checkpointed switched replay. FeatureDefault
	// follows the sign of Spec.Checkpoints (negative = off). When forced
	// On while that field is negative, the default checkpoint count is
	// used; otherwise Spec.Checkpoints keeps selecting the count. On by
	// default.
	Checkpoints FeatureMode
	// Speculation overlaps predicted next-round switched runs with the
	// re-prune (docs/SPECULATION.md). OFF by default —
	// on single-CPU hosts speculative runs compete with demand work.
	// Forced off under PathMode and when the switched-run cache is
	// disabled (there is nowhere to land the results).
	Speculation FeatureMode
}

// Overlay returns f with over's non-default fields taking precedence —
// the per-subject merge rule of corpus manifests.
func (f Features) Overlay(over Features) Features {
	pick := func(base, o FeatureMode) FeatureMode {
		if o != FeatureDefault {
			return o
		}
		return base
	}
	return Features{
		StaticSkip:         pick(f.StaticSkip, over.StaticSkip),
		StaticReach:        pick(f.StaticReach, over.StaticReach),
		IncrementalReprune: pick(f.IncrementalReprune, over.IncrementalReprune),
		Checkpoints:        pick(f.Checkpoints, over.Checkpoints),
		Speculation:        pick(f.Speculation, over.Speculation),
	}
}

// Feature names as spelled on the wire (api requests, corpus manifests)
// and in -feature CLI flags.
const (
	FeatureStaticSkip         = "static_skip"
	FeatureStaticReach        = "static_reach"
	FeatureIncrementalReprune = "incremental_reprune"
	FeatureCheckpoints        = "checkpoints"
	FeatureSpeculation        = "speculation"
)

// FeatureNames lists the wire-spelling feature names, sorted.
func FeatureNames() []string {
	return []string{
		FeatureCheckpoints,
		FeatureIncrementalReprune,
		FeatureSpeculation,
		FeatureStaticReach,
		FeatureStaticSkip,
	}
}

// ParseFeatures builds a Features from its wire spelling: a map from
// feature name to mode ("on", "off", "default" or empty). Unknown names
// and modes are rejected — the server surfaces them with the `invalid`
// error code.
func ParseFeatures(m map[string]string) (Features, error) {
	var f Features
	// Deterministic error selection: report the smallest offending name.
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mode, err := ParseFeatureMode(m[name])
		if err != nil {
			return Features{}, fmt.Errorf("feature %s: %w", name, err)
		}
		switch name {
		case FeatureStaticSkip:
			f.StaticSkip = mode
		case FeatureStaticReach:
			f.StaticReach = mode
		case FeatureIncrementalReprune:
			f.IncrementalReprune = mode
		case FeatureCheckpoints:
			f.Checkpoints = mode
		case FeatureSpeculation:
			f.Speculation = mode
		default:
			return Features{}, fmt.Errorf("unknown feature %q (want one of %v)", name, FeatureNames())
		}
	}
	return f, nil
}

// Map renders f in its wire spelling, omitting FeatureDefault fields —
// so a zero Features marshals to nothing and existing requests stay
// byte-identical.
func (f Features) Map() map[string]string {
	m := map[string]string{}
	put := func(name string, mode FeatureMode) {
		if mode != FeatureDefault {
			m[name] = mode.String()
		}
	}
	put(FeatureStaticSkip, f.StaticSkip)
	put(FeatureStaticReach, f.StaticReach)
	put(FeatureIncrementalReprune, f.IncrementalReprune)
	put(FeatureCheckpoints, f.Checkpoints)
	put(FeatureSpeculation, f.Speculation)
	if len(m) == 0 {
		return nil
	}
	return m
}

// ResolvedFeatures is a Spec's feature configuration after resolving the
// tri-states: plain booleans plus the checkpoint count, ready for
// LocateContext to act on.
type ResolvedFeatures struct {
	StaticSkip         bool
	StaticReach        bool
	IncrementalReprune bool
	Checkpoints        bool
	// CheckpointCount is the capture bound when Checkpoints is true
	// (0 = vm.DefaultCheckpoints).
	CheckpointCount int
	Speculation     bool
}

// ResolveFeatures resolves spec's Features: FeatureOn/FeatureOff force
// a feature, FeatureDefault selects its default. This is the single
// source of truth for what LocateContext enables — callers inspecting a
// Spec (harness, corpus, tests) should use it.
func (s *Spec) ResolveFeatures() ResolvedFeatures {
	r := ResolvedFeatures{
		StaticSkip:         true,
		StaticReach:        true,
		IncrementalReprune: true,
		Checkpoints:        s.Checkpoints >= 0,
	}
	if s.Checkpoints > 0 {
		r.CheckpointCount = s.Checkpoints
	}
	apply := func(mode FeatureMode, b *bool) {
		switch mode {
		case FeatureOn:
			*b = true
		case FeatureOff:
			*b = false
		}
	}
	apply(s.Features.StaticSkip, &r.StaticSkip)
	apply(s.Features.StaticReach, &r.StaticReach)
	apply(s.Features.IncrementalReprune, &r.IncrementalReprune)
	apply(s.Features.Checkpoints, &r.Checkpoints)
	apply(s.Features.Speculation, &r.Speculation)
	return r
}
