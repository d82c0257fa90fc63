package cliutil

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"eol/internal/core"
	"eol/internal/obs"
)

// hiddenUsagePrefix marks a flag as hidden: it parses normally but is
// omitted from the -h listing. Nothing registers a hidden flag today —
// the deprecated -verify-workers/-verify-cache aliases that used it
// were removed after their deprecation cycle (they now fail with the
// usual unknown-flag usage error, exit code 2) — but the mechanism
// stays for the next rename.
const hiddenUsagePrefix = "hidden: "

// EngineFlags holds the verification-engine sizing knobs shared by every
// command that runs localizations. The zero values mean "library
// default" and can be passed straight to core.Spec.VerifyWorkers /
// VerifyCacheSize.
type EngineFlags struct {
	// Workers is the verification worker-pool size: 0 = GOMAXPROCS,
	// 1 = the sequential inline path.
	Workers int
	// Cache sizes the switched-run cache: 0 = engine default, negative
	// disables caching.
	Cache int
	// Checkpoints bounds the checkpoint store captured during the
	// failing run: 0 = vm.DefaultCheckpoints, negative disables
	// checkpointed switched replay (docs/CHECKPOINT.md).
	Checkpoints int
	// NoStaticReach disables the pre-execution static reach filter over
	// the interprocedural dependence graph (docs/STATICDEP.md).
	NoStaticReach bool
	// Speculate enables speculative verification: predicted next-round
	// switched runs overlap the incremental re-prune. Results, counters,
	// and the journal are byte-identical either way
	// (docs/SPECULATION.md).
	Speculate bool
}

// Features translates the parsed flags into the engine-feature
// tri-states for core.Spec.Features / corpus.Options.Features:
// -no-static-reach maps to StaticReach off, -speculate to Speculation
// on. The sizing knobs (Workers, Cache, Checkpoints) stay plain ints
// because they carry sizes, not on/off choices.
func (ef *EngineFlags) Features() core.Features {
	var f core.Features
	if ef.NoStaticReach {
		f.StaticReach = core.FeatureOff
	}
	if ef.Speculate {
		f.Speculation = core.FeatureOn
	}
	return f
}

// RegisterEngineFlags registers the unified engine knobs -workers,
// -cache, -checkpoints, -no-static-reach and -speculate on fs. The pre-unification spellings -verify-workers/-verify-cache
// finished their deprecation cycle and are gone: they fail like any
// unknown flag (usage + exit code 2 under flag.ExitOnError).
func RegisterEngineFlags(fs *flag.FlagSet) *EngineFlags {
	ef := &EngineFlags{}
	fs.IntVar(&ef.Workers, "workers", 0,
		"verification workers (0 = GOMAXPROCS, 1 = sequential)")
	fs.IntVar(&ef.Cache, "cache", 0,
		"switched-run cache size (0 = default, negative = disabled)")
	fs.IntVar(&ef.Checkpoints, "checkpoints", 0,
		"failing-run checkpoint bound for switched replay (0 = default, negative = disabled)")
	fs.BoolVar(&ef.NoStaticReach, "no-static-reach", false,
		"disable the pre-execution static reach filter")
	fs.BoolVar(&ef.Speculate, "speculate", false,
		"speculatively verify predicted candidates during re-prune (same results, see docs/SPECULATION.md)")
	hideAliases(fs)
	return ef
}

// ObsFlags holds the observability knobs shared by every command:
// -trace FILE writes the JSONL run journal, -progress streams
// human-readable phase progress to stderr.
type ObsFlags struct {
	TracePath string
	Progress  bool
}

// RegisterObsFlags registers -trace and -progress on fs.
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	of := &ObsFlags{}
	fs.StringVar(&of.TracePath, "trace", "",
		"write a JSONL event journal to this `file`")
	fs.BoolVar(&of.Progress, "progress", false,
		"print live phase progress to stderr")
	hideAliases(fs)
	return of
}

// Observer builds the observer the parsed flags ask for: a JSONL
// journal on TracePath, a progress sink on stderr, both, or nil when
// neither flag was given (the zero-cost path). close flushes and closes
// the journal file and must be called once the run is over, even when
// observer is nil.
func (of *ObsFlags) Observer() (observer obs.Observer, close func() error, err error) {
	close = func() error { return nil }
	var sinks []obs.Observer
	if of.TracePath != "" {
		f, err := os.Create(of.TracePath)
		if err != nil {
			return nil, nil, err
		}
		j := obs.NewJournal(f)
		sinks = append(sinks, j)
		close = func() error {
			ferr := j.Flush()
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
			return ferr
		}
	}
	if of.Progress {
		sinks = append(sinks, obs.NewProgress(os.Stderr))
	}
	return obs.Tee(sinks...), close, nil
}

// hideAliases replaces fs.Usage with a PrintDefaults equivalent that
// skips flags whose usage starts with hiddenUsagePrefix. Idempotent in
// effect, so each Register helper may call it.
func hideAliases(fs *flag.FlagSet) {
	fs.Usage = func() {
		out := fs.Output()
		if fs.Name() != "" {
			fmt.Fprintf(out, "Usage of %s:\n", fs.Name())
		}
		fs.VisitAll(func(f *flag.Flag) {
			if strings.HasPrefix(f.Usage, hiddenUsagePrefix) {
				return
			}
			name, usage := flag.UnquoteUsage(f)
			fmt.Fprintf(out, "  -%s %s\n    \t%s", f.Name, name, usage)
			if f.DefValue != "" && f.DefValue != "0" && f.DefValue != "false" {
				fmt.Fprintf(out, " (default %v)", f.DefValue)
			}
			fmt.Fprintln(out)
		})
	}
}
