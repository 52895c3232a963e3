package harness_test

import (
	"flag"
	"testing"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
)

// bindAll binds the command line's two halves on one flag set, as
// cmd/chipmunk does: the run selection into a spec, the rest into CLIOptions.
func bindAll(name string) (*flag.FlagSet, *campaign.Spec, *harness.CLIOptions) {
	fl := flag.NewFlagSet(name, flag.ContinueOnError)
	spec := &campaign.Spec{}
	spec.BindFlags(fl)
	return fl, spec, harness.BindCLI(fl)
}

// TestBindCLISandboxOptions: -check-timeout and -exhaustive-limit plumb
// from the spec's flags through Spec.Options into the engine Config.
func TestBindCLISandboxOptions(t *testing.T) {
	fl, spec, _ := bindAll("test")
	if err := fl.Parse([]string{"-check-timeout", "250ms", "-exhaustive-limit", "10"}); err != nil {
		t.Fatal(err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.CheckTimeout != 250*time.Millisecond || opts.ExhaustiveLimit != 10 {
		t.Fatalf("opts = %+v", opts)
	}
	sys, cfg, err := opts.Resolve()
	if err != nil || sys.Name != "nova" {
		t.Fatalf("Resolve: %v, %v", sys.Name, err)
	}
	if cfg.CheckTimeout != 250*time.Millisecond || cfg.ExhaustiveLimit != 10 {
		t.Fatalf("cfg = %+v", cfg)
	}

	// Defaults: unparsed flags resolve to the engine defaults.
	fl2, spec2, _ := bindAll("test2")
	if err := fl2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if spec2.FS != "nova" || spec2.Bugs != "none" || spec2.Cap != 0 {
		t.Fatalf("default flags: -fs %q -bugs %q -cap %d", spec2.FS, spec2.Bugs, spec2.Cap)
	}
	opts2, err := spec2.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts2.CheckTimeout != core.DefaultCheckTimeout || opts2.ExhaustiveLimit != core.DefaultExhaustiveLimit {
		t.Fatalf("default opts = %+v", opts2)
	}
}

// TestObsFlagsInstrument: the shared flag bundle resolves to a working
// Instrumentation and Apply threads it into the spec's Options.
func TestObsFlagsInstrument(t *testing.T) {
	fl, spec, cli := bindAll("test")
	journal := t.TempDir() + "/run.jsonl"
	if err := fl.Parse([]string{"-stats", "-journal", journal, "-debug-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	in, err := cli.Instrument()
	if err != nil {
		t.Fatal(err)
	}
	if in.Col == nil || in.Journal == nil || in.Debug == nil {
		t.Fatalf("instrumentation incomplete: %+v", in)
	}
	if in.Debug.Addr() == "" {
		t.Fatal("debug listener has no address")
	}
	o, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	in.Apply(&o)
	if o.Obs != in.Col || o.Tracer != in.Tracer || o.Tracer == nil {
		t.Fatal("Apply did not thread the instrumentation")
	}
	in.EmitRun("nova", 3)
	in.Col.Inc(obs.CtrStatesChecked)
	if s := in.RenderStats(time.Second); s == "" {
		t.Fatal("RenderStats empty with -stats set")
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := obs.ReadJournalFile(journal)
	if err != nil || skipped != 0 || len(events) != 1 || events[0].Type != "run" {
		t.Fatalf("journal after close: events=%v skipped=%d err=%v", events, skipped, err)
	}

	// All facilities off: Instrument still returns a safe bundle.
	fl2, spec2, cli2 := bindAll("test2")
	if err := fl2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	off, err := cli2.Instrument()
	if err != nil {
		t.Fatal(err)
	}
	if off.Col != nil || off.Journal != nil || off.Debug != nil {
		t.Fatal("disabled instrumentation not empty")
	}
	if s := off.RenderStats(time.Second); s != "" {
		t.Fatalf("RenderStats with everything off = %q", s)
	}
	o2, err := spec2.Options()
	if err != nil {
		t.Fatal(err)
	}
	off.Apply(&o2)
	if o2.Obs != nil || o2.Tracer != nil {
		t.Fatal("Apply leaked non-nil sinks")
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}
}
