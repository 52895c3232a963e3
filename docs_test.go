// Package chipmunk_test holds repository-level checks that span packages.
package chipmunk_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents whose commands and benchmark names a reader
// is expected to run.
var citingDocs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	docPathRe  = regexp.MustCompile(`\b(cmd|examples)/([A-Za-z0-9_-]+)`)
	docBenchRe = regexp.MustCompile(`\b(Benchmark\w+)(\*?)`)
	benchDefRe = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
)

// TestDocsCiteExistingCode: every cmd/<x> and examples/<x> the docs name
// is a directory in the tree, and every Benchmark<Name> they cite (a
// trailing * cites a prefix) is defined in some Go file, so a deleted
// command or benchmark cannot stay documented.
func TestDocsCiteExistingCode(t *testing.T) {
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchDefRe.FindAllSubmatch(data, -1) {
			defined = append(defined, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isDefined := func(name string, prefix bool) bool {
		for _, d := range defined {
			if d == name || (prefix && strings.HasPrefix(d, name)) {
				return true
			}
		}
		return false
	}

	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range docPathRe.FindAllStringSubmatch(text, -1) {
			dir := filepath.Join(m[1], m[2])
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				t.Errorf("%s cites %s, which does not exist", doc, dir)
			}
		}
		for _, m := range docBenchRe.FindAllStringSubmatch(text, -1) {
			if !isDefined(m[1], m[2] == "*") {
				t.Errorf("%s cites %s%s, which no Go file defines", doc, m[1], m[2])
			}
		}
	}
}
