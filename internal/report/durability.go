package report

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"chipmunk/internal/core"
)

// This file renders the application-durability report (`chipmunk -app=...
// -durability-report=DURABILITY.md`): an evidence-first markdown summary of
// the crash contract an application was checked against, the per-file-system
// verdicts, and pointers to the violating crash states — the shape durable
// KV stores publish for their own crash-recovery test results.

// contracts lists the KV durability contract in report order. The checker's
// Finding.Contract values index into it; unknown names still render (a new
// contract must never vanish from the report).
var contracts = []struct{ name, meaning string }{
	{"acked-durability", "every mutation acknowledged by a successful sync survives recovery"},
	{"seqno-prefix", "the recovered state is a prefix of the issued history — no holes, nothing from the future"},
	{"no-silent-corruption", "recovered values are byte-exact; torn or corrupt log tails are truncated, never returned"},
	{"recoverable", "recovery itself succeeds on every crash state"},
}

// DurabilityRun is one file system's slice of an application-durability
// campaign.
type DurabilityRun struct {
	FS            string
	Weak          bool // fsync-gated crash-point model (DAX systems)
	Workloads     int
	StatesChecked int
	Elapsed       time.Duration
	Violations    []core.Violation
}

// DurabilityReport is the input to WriteDurability: the campaign
// configuration plus every per-system run.
type DurabilityReport struct {
	App     string // -app selector ("kv")
	AppBugs string // -app-bugs spec ("none" unless bugs were seeded)
	Suite   string
	Cap     int
	Journal string // -journal path, "" if off
	Runs    []DurabilityRun
}

// WriteDurability renders the report to path. The content is deterministic
// for a deterministic campaign: no timestamps, violations in census order.
func WriteDurability(path string, rep DurabilityReport) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Application crash-durability report: %s\n\n", rep.App)
	seeded := rep.AppBugs != "" && rep.AppBugs != "none"
	if seeded {
		fmt.Fprintf(&b, "> **Seeded-bug run** (`-app-bugs=%s`): violations below are expected — they prove the contract detects the defect.\n\n", rep.AppBugs)
	}
	fmt.Fprintf(&b, "Suite `%s` replayed through every crash state the engine enumerated (cap=%d in-flight writes), recovering the application on each state and checking its durability contract.\n\n", rep.Suite, rep.Cap)

	b.WriteString("## The contract\n\n")
	b.WriteString("A crash state passes only if all of the following hold after recovery:\n\n")
	for _, c := range contracts {
		fmt.Fprintf(&b, "- **%s** — %s.\n", c.name, c.meaning)
	}
	b.WriteString("\n")

	b.WriteString("## Verdicts\n\n")
	b.WriteString("| File system | Crash-point model | Workloads | Crash states | Violations | Status |\n")
	b.WriteString("|---|---|---:|---:|---:|---|\n")
	total := 0
	for _, r := range rep.Runs {
		model := "strong (every fence)"
		if r.Weak {
			model = "weak (fsync-gated)"
		}
		status := "✅ pass"
		if len(r.Violations) > 0 {
			status = "❌ FAIL"
			if seeded {
				status = "❌ flagged (expected)"
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %s |\n",
			r.FS, model, r.Workloads, r.StatesChecked, len(r.Violations), status)
		total += len(r.Violations)
	}
	b.WriteString("\n")

	b.WriteString("### Per-contract breakdown\n\n")
	byContract := map[string]int{}
	for _, r := range rep.Runs {
		for _, v := range r.Violations {
			name := v.Contract
			if name == "" {
				name = v.Kind.String()
			}
			byContract[name]++
		}
	}
	b.WriteString("| Contract | Violations | Status |\n|---|---:|---|\n")
	for _, c := range contracts {
		status := "✅ upheld"
		if byContract[c.name] > 0 {
			status = "❌ violated"
		}
		fmt.Fprintf(&b, "| %s | %d | %s |\n", c.name, byContract[c.name], status)
		delete(byContract, c.name)
	}
	// Anything the checker reported outside the KV contract vocabulary
	// (e.g. FS-oracle kinds from a mixed run) still gets a row.
	extra := make([]string, 0, len(byContract))
	for name := range byContract {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(&b, "| %s | %d | ❌ violated |\n", name, byContract[name])
	}
	b.WriteString("\n")

	if total > 0 {
		b.WriteString("## Evidence\n\n")
		b.WriteString("First reports per file system (full set in the engine output; each names the workload, the crash point, and the replayed in-flight subset):\n\n")
		const perFS = 3
		for _, r := range rep.Runs {
			if len(r.Violations) == 0 {
				continue
			}
			fmt.Fprintf(&b, "### %s (%d reports)\n\n", r.FS, len(r.Violations))
			for i, v := range r.Violations {
				if i == perFS {
					fmt.Fprintf(&b, "… %d more.\n\n", len(r.Violations)-perFS)
					break
				}
				fmt.Fprintf(&b, "```\n%s\n```\n\n", v.String())
			}
		}
	}

	b.WriteString("## Reproduce\n\n")
	b.WriteString("```sh\n")
	bugFlag := ""
	if seeded {
		bugFlag = fmt.Sprintf(" -app-bugs=%s", rep.AppBugs)
	}
	for _, r := range rep.Runs {
		fmt.Fprintf(&b, "chipmunk -app=%s%s -fs %s -suite %s -cap %d -v\n",
			rep.App, bugFlag, r.FS, rep.Suite, rep.Cap)
	}
	b.WriteString("```\n\n")
	b.WriteString("The engine is deterministic: the same command reproduces the same crash states and the same reports, byte for byte, at any worker count.\n")
	if rep.Journal != "" {
		fmt.Fprintf(&b, "\nPer-state evidence (one JSONL span per workload and fence, one event per violation) is in `%s`.\n", rep.Journal)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
