package harness

import (
	"flag"
	"time"

	"chipmunk/internal/app/kvwork"
	"chipmunk/internal/core"
	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
)

// This file is the CLIs' single flag frontend: every shared flag — engine
// tuning, application selection, fault injection, output, and
// observability — binds through one BindCLI call into one CLIOptions value;
// cmd/experiments, which builds its own engine configurations, binds only
// the observability flags through BindObsCLI. Lifecycle:
//
//	cli := harness.BindCLI(flag.CommandLine)
//	flag.Parse()
//	opts, err := cli.Options()     // engine Options (validated)
//	inst, err := cli.Instrument()  // -stats/-journal/-debug-addr plumbing
//	defer inst.Close()
//	inst.Apply(&opts)

// CLIOptions holds the parsed values of every shared CLI flag. Fields are
// plain values (not pointers): read them after flag parsing.
type CLIOptions struct {
	// Engine selection and tuning.
	FS              string
	Bugs            string
	Cap             int
	CheckTimeout    time.Duration
	ExhaustiveLimit int

	// Application-level durability checking.
	App              string
	AppBugs          string
	DurabilityReport string

	// Fault injection.
	Faults    bool
	FaultSeed uint64

	// Suite-level execution and output.
	Jobs    int
	OutDir  string
	Verbose bool

	// Observability.
	Stats     bool
	Journal   string
	DebugAddr string
}

// BindCLI registers the shared flags on fl. Call fl.Parse (or flag.Parse
// for the default set), then Options and Instrument to resolve the parsed
// values.
func BindCLI(fl *flag.FlagSet) *CLIOptions {
	c := BindObsCLI(fl)
	fl.StringVar(&c.FS, "fs", "nova", "file system: nova, nova-fortis, pmfs, winefs, splitfs, ext4-dax, xfs-dax")
	fl.StringVar(&c.Bugs, "bugs", "none", `injected bugs: "none", "all", or comma-separated IDs (e.g. "4,5")`)
	fl.IntVar(&c.Cap, "cap", 0, "max in-flight writes replayed per crash state (0 = exhaustive)")
	fl.DurationVar(&c.CheckTimeout, "check-timeout", core.DefaultCheckTimeout,
		"per-crash-state check deadline; hung checks are quarantined as check-timeout (negative = no deadline)")
	fl.IntVar(&c.ExhaustiveLimit, "exhaustive-limit", core.DefaultExhaustiveLimit,
		"max in-flight writes for exhaustive subset enumeration before falling back to the safety cap")

	fl.StringVar(&c.App, "app", "",
		`application-level durability checking: "kv" runs the WAL KV store workload and checks its crash contract instead of the FS oracle`)
	fl.StringVar(&c.AppBugs, "app-bugs", "none",
		`seeded application bugs for -app: "none", or comma-separated of ack-loss, bad-crc`)
	fl.StringVar(&c.DurabilityReport, "durability-report", "DURABILITY.md",
		"(with -app) write the application-durability report to this path")

	fl.BoolVar(&c.Faults, "faults", false,
		"inject pmem faults (torn stores, bit flips, media errors) into crash states")
	fl.Uint64Var(&c.FaultSeed, "fault-seed", 1, "deterministic seed for -faults")

	fl.IntVar(&c.Jobs, "j", 1, "suite-level workers (like the paper's VM sharding; 0 = all cores)")
	fl.StringVar(&c.OutDir, "o", "", "write triaged bug reports and reproducers to this directory")
	fl.BoolVar(&c.Verbose, "v", false, "print every violation")
	return c
}

// BindObsCLI registers only the observability flags (-stats, -journal,
// -debug-addr) on fl; Instrument resolves them.
func BindObsCLI(fl *flag.FlagSet) *CLIOptions {
	c := &CLIOptions{}
	fl.BoolVar(&c.Stats, "stats", false,
		"print the per-stage time/counter breakdown after the run")
	fl.StringVar(&c.Journal, "journal", "",
		"append one JSONL span per engine stage and one event per violation/quarantine to this file")
	fl.StringVar(&c.DebugAddr, "debug-addr", "",
		"serve live introspection (/debug/vars, /debug/metrics, /debug/pprof/, /progress) on this host:port")
	return c
}

// Options validates the parsed flag values into an engine Options,
// including the -app wiring (application factory + contract checker) and
// -faults configuration.
func (c *CLIOptions) Options() (Options, error) {
	set, err := ParseBugSpec(c.Bugs)
	if err != nil {
		return Options{}, err
	}
	if err := AppByName(c.App); err != nil {
		return Options{}, err
	}
	appBugs, err := kvwork.ParseBugs(c.AppBugs)
	if err != nil {
		return Options{}, err
	}
	o := Options{
		FS:              c.FS,
		Bugs:            set,
		Cap:             c.Cap,
		CheckTimeout:    c.CheckTimeout,
		ExhaustiveLimit: c.ExhaustiveLimit,
		App:             c.App,
		AppBugs:         appBugs,
	}
	if c.Faults {
		o.Faults = pmem.DefaultFaults(c.FaultSeed)
	}
	return o, nil
}

// Instrument resolves the parsed observability flags into an
// Instrumentation. All three facilities are off by default; the returned
// value (possibly holding only nils) is always safe to Apply and Close.
// Errors (unwritable journal path, unbindable debug address) are reported,
// not ignored.
func (c *CLIOptions) Instrument() (*Instrumentation, error) {
	in := &Instrumentation{stats: c.Stats}
	if c.Stats || c.DebugAddr != "" {
		in.Col = obs.New()
	}
	if c.Journal != "" {
		j, err := obs.Create(c.Journal)
		if err != nil {
			return nil, err
		}
		in.Journal = j
		// Local runs trace under fixed (seed 0, shard 0) coordinates, so
		// the span multiset is comparable across worker counts and reruns;
		// campaign workers derive per-shard tracers instead.
		in.Tracer = obs.NewTracer(j, 0, 0)
	}
	if c.DebugAddr != "" {
		ds, err := obs.ServeDebug(c.DebugAddr, in.Col)
		if err != nil {
			in.Journal.Close() //nolint:errcheck // already failing
			return nil, err
		}
		in.Debug = ds
	}
	return in, nil
}
