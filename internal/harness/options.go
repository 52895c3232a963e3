package harness

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"chipmunk/internal/app/kvstore"
	"chipmunk/internal/app/kvwork"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
)

// Options selects a system under test plus the engine tuning the CLIs and
// experiment drivers share — the replacement for the positional
// ConfigFor(sys, set, cap) and the flag parsing each command used to copy.
type Options struct {
	// FS names the target file system (see Systems).
	FS string
	// Bugs is the injected bug set (bugs.None() for the fixed systems).
	Bugs bugs.Set
	// Cap bounds replayed in-flight subsets (0 = exhaustive).
	Cap int
	// Workers is ignored: the engine checks each run's crash states on one
	// supervised runner. Suite-level fan-out is WithWorkers.
	//
	// Deprecated: ignored; kept because the bench module sets it.
	Workers int
	// CheckTimeout is the per-crash-state sandbox deadline
	// (0 = core.DefaultCheckTimeout, negative = none).
	CheckTimeout time.Duration
	// ExhaustiveLimit overrides the exhaustive-enumeration bound
	// (0 = core.DefaultExhaustiveLimit).
	ExhaustiveLimit int
	// Faults enables the pmem fault injector for crash-state checks
	// (nil = off).
	Faults *pmem.FaultConfig
	// Obs receives per-stage metrics from every engine run (nil = off;
	// the engine then skips all clock reads).
	Obs *obs.Collector
	// Journal receives run-journal events from every engine run (nil = off).
	Journal *obs.Journal
	// Tracer emits deterministic engine-stage spans into the journal
	// (nil = off; see obs.Tracer).
	Tracer *obs.Tracer
	// App selects an application-level workload and its crash-contract
	// checker instead of the FS-oracle comparison: "" (none, the default)
	// or "kv" (the WAL KV store, internal/app/kvstore).
	App string
	// AppBugs seeds store defects into the -app application (both the
	// workload's instance and the checker's recovery). Zero value = none.
	AppBugs kvstore.Bugs
}

// Resolve looks up the system and builds its engine Config.
func (o Options) Resolve() (System, core.Config, error) {
	sys, err := SystemByName(o.FS)
	if err != nil {
		return System{}, core.Config{}, err
	}
	return sys, o.ConfigFor(sys), nil
}

// ConfigFor builds the engine Config for an already-resolved system. With
// App set, the application factory and its contract checker replace the
// default FS-oracle comparison.
func (o Options) ConfigFor(sys System) core.Config {
	cfg := core.Config{
		NewFS:           sys.Factory(o.Bugs),
		Cap:             o.Cap,
		CheckTimeout:    o.CheckTimeout,
		ExhaustiveLimit: o.ExhaustiveLimit,
		Faults:          o.Faults,
		Obs:             o.Obs,
		Journal:         o.Journal,
		Tracer:          o.Tracer,
	}
	if o.App == "kv" {
		cfg.AppFactory = kvwork.Factory(o.AppBugs)
		cfg.Checker = kvwork.NewChecker(o.AppBugs)
	}
	return cfg
}

// AppByName validates an -app selector.
func AppByName(name string) error {
	switch name {
	case "", "kv":
		return nil
	}
	return fmt.Errorf("harness: unknown app %q (want kv)", name)
}

// ParseBugSpec parses the CLIs' -bugs syntax: "none" (or empty), "all", or
// a comma-separated ID list such as "4,5".
func ParseBugSpec(spec string) (bugs.Set, error) {
	switch spec {
	case "none", "":
		return bugs.None(), nil
	case "all":
		return bugs.AllSet(), nil
	}
	set := bugs.Set{}
	for _, part := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad bug id %q", part)
		}
		if _, ok := bugs.Lookup(bugs.ID(id)); !ok {
			return nil, fmt.Errorf("unknown bug id %d", id)
		}
		set = set.With(bugs.ID(id))
	}
	return set, nil
}
