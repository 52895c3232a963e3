package vfs_test

import (
	"bytes"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/workload"
)

// TestPersistentImageDeterministic keeps map iteration order out of the
// models' PM layout. Go randomizes the order of every range over a map, so
// a model whose on-media bytes follow one would leave different images
// from identical runs; crash states, dedup and verdicts would then vary
// run to run. Each seq-1 workload, and each of the fuzz stream's, runs
// twice on fresh devices: the persistent image after the workload, and
// after a mount has recovered it, must be byte-identical across the runs.
// A system that forks (vfs.Forker) also runs seq-1-dax and the stream
// forked at every op boundary with no descriptor open: the images after
// every later op, and after recovery, must be the unforked run's.
func TestPersistentImageDeterministic(t *testing.T) {
	ws := append(ace.Seq1(), fuzzStream(2, 100)...)
	for _, s := range systems() {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			for _, w := range ws {
				a1, a2 := images(t, s, w)
				b1, b2 := images(t, s, w)
				if off := firstDiff(a1, b1); off >= 0 {
					t.Errorf("%s: persistent images differ from byte %d", w.Name, off)
				}
				if off := firstDiff(a2, b2); off >= 0 {
					t.Errorf("%s: images after recovery differ from byte %d", w.Name, off)
				}
			}
		})
	}
	for _, s := range forkers() {
		t.Run(s.name+"/forked", func(t *testing.T) {
			t.Parallel()
			for _, w := range append(ace.Seq1Dax(), fuzzStream(2, 100)...) {
				if d := forkedRuns(t, s, w, false); d != "" {
					t.Errorf("%s: %s", w.Name, d)
				}
			}
		})
	}
}

// images runs w on a fresh s and returns the persistent image, and that
// image again once a mount has recovered it.
func images(t *testing.T, s system, w workload.Workload) (run, recovered []byte) {
	fs, dev := s.formatted(t)
	workload.Run(fs, w, workload.Hooks{})
	run = dev.CrashImage()
	rec := pmem.FromImage(run)
	if err := s.mk(persist.New(rec)).Mount(); err != nil {
		t.Fatalf("%s: mount: %v", w.Name, err)
	}
	return run, rec.CrashImage()
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
