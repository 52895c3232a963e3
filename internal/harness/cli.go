package harness

import (
	"flag"

	"chipmunk/internal/obs"
)

// This file is the CLIs' flag frontend for what is not the run selection:
// suite-level execution, output and observability. The engine flags bind
// into the run's campaign.Spec (Spec.BindFlags), which resolves them;
// cmd/experiments, which builds its own engine configurations, binds only
// the observability flags through BindObsCLI. Lifecycle:
//
//	spec := campaign.Spec{Workers: 1}
//	spec.BindFlags(flag.CommandLine)
//	cli := harness.BindCLI(flag.CommandLine)
//	flag.Parse()
//	opts, err := spec.Options()    // engine Options (validated)
//	inst, err := cli.Instrument()  // -stats/-journal/-debug-addr plumbing
//	defer inst.Close()
//	inst.Apply(&opts)

// CLIOptions holds the parsed values of the flags BindCLI binds. Fields
// are plain values (not pointers): read them after flag parsing.
type CLIOptions struct {
	// Suite-level execution and output.
	Jobs             int
	OutDir           string
	Verbose          bool
	DurabilityReport string

	// Observability.
	Stats     bool
	Journal   string
	DebugAddr string
}

// BindCLI registers the execution, output and observability flags on fl.
// Call fl.Parse (or flag.Parse for the default set), then Instrument to
// resolve the observability flags.
func BindCLI(fl *flag.FlagSet) *CLIOptions {
	c := BindObsCLI(fl)
	fl.StringVar(&c.DurabilityReport, "durability-report", "DURABILITY.md",
		"(with -app) write the application-durability report to this path")
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
