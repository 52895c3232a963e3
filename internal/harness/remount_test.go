package harness

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"reflect"
	"slices"
	"sync"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/core"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// imageSet keeps the distinct crash images a suite's runs hand their guests
// to mount, in the order they first appear: each as its non-zero 4 KiB
// pages, every distinct page stored once.
type imageSet struct {
	mu     sync.Mutex
	buf    []byte
	ids    map[string]int32
	pages  []string
	seen   map[string]bool
	images [][]pageRef
}

// pageRef places stored page page at page index at of an image.
type pageRef struct{ at, page int32 }

const imagePage = 4096

// add records the image pm holds, unless an equal one is recorded already.
func (s *imageSet) add(pm *persist.PM) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf == nil {
		s.buf, s.ids, s.seen = make([]byte, pm.Size()), map[string]int32{}, map[string]bool{}
	}
	pm.Mem().Peek(0, s.buf)
	var refs []pageRef
	var key bytes.Buffer
	zero := make([]byte, imagePage)
	for off := 0; off < len(s.buf); off += imagePage {
		p := s.buf[off : off+imagePage]
		if bytes.Equal(p, zero) {
			continue
		}
		id, ok := s.ids[string(p)]
		if !ok {
			id = int32(len(s.pages))
			s.pages = append(s.pages, string(p))
			s.ids[string(p)] = id
		}
		refs = append(refs, pageRef{int32(off / imagePage), id})
		fmt.Fprintf(&key, "%d:%d,", off/imagePage, id)
	}
	if !s.seen[key.String()] {
		s.seen[key.String()] = true
		s.images = append(s.images, refs)
	}
}

// load writes image i into dst.
func (s *imageSet) load(i int, dst []byte) {
	clear(dst)
	for _, r := range s.images[i] {
		copy(dst[int(r.at)*imagePage:], s.pages[r.page])
	}
}

// imageRecordFS records the image it is handed in its set, then mounts it.
type imageRecordFS struct {
	vfs.FS
	pm  *persist.PM
	set *imageSet
}

func (f imageRecordFS) Mount() error {
	f.set.add(f.pm)
	return f.FS.Mount()
}

// mountOutcome is everything a check learns from mounting one image: the
// mount's error, a capture of the mounted state, the contract's observation
// and its probe's finding, the panic that cut any of them short, and a hash
// of the image the guest left behind.
type mountOutcome struct {
	err, capErr, panicked string
	st                    vfs.State
	o                     core.Observation
	probe                 *core.Finding
	img                   uint64
}

var imageSeed = maphash.MakeSeed()

// check mounts with mount, then captures, observes and probes fs, which
// runs on the image img.
func check(c core.Checker, fs vfs.FS, mount func() error, img []byte) (out mountOutcome) {
	defer func() {
		if p := recover(); p != nil {
			out.panicked = fmt.Sprint(p)
		}
		out.img = maphash.Bytes(imageSeed, img)
	}()
	if err := mount(); err != nil {
		out.err = err.Error()
		return out
	}
	st, err := vfs.Capture(fs)
	if out.st = st; err != nil {
		out.capErr = err.Error()
	}
	out.o = c.Observe(fs, nil)
	out.probe = c.Probe(fs, out.o)
	return out
}

// TestRemountMatchesFresh: a guest that mounts again in place
// (vfs.Remounter) must answer every crash state as a fresh instance does.
// For each of the seven systems, without bugs and with all of them, every
// distinct image that seq1 (seq1dax on the weak systems) and kv-smoke hand
// a guest is mounted on a fresh instance and then, forward and in reverse,
// on one instance that last mounted the previous image: the mount's
// error, a capture, the contract's observation, the probe's finding and
// the image the guest leaves behind must be equal. An observation kept
// from one image must still equal the fresh one after the guest remounted
// the next.
func TestRemountMatchesFresh(t *testing.T) {
	for _, sys := range Systems() {
		for _, set := range []bugs.Set{bugs.None(), bugs.AllSet()} {
			seq1 := ace.Seq1()
			if sys.Weak {
				seq1 = ace.Seq1Dax()
			}
			for _, c := range []struct {
				app   string
				suite []workload.Workload
			}{{"", seq1}, {"kv", ace.KVSmoke()}} {
				name := fmt.Sprintf("%s/bugs=%d/%s", sys.Name, len(set.IDs()), map[string]string{"": "seq1", "kv": "kv-smoke"}[c.app])
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					remountDifferential(t, sys, Options{Bugs: set, App: c.app}, c.suite)
				})
			}
		}
	}
}

func remountDifferential(t *testing.T, sys System, opts Options, suite []workload.Workload) {
	cfg := opts.ConfigFor(sys)
	newFS := cfg.NewFS
	images := &imageSet{}
	for _, w := range suite {
		c := cfg
		c.NewFS = crashStateFS(newFS, func(fs vfs.FS, pm *persist.PM) vfs.FS {
			return imageRecordFS{fs, pm, images}
		})
		if _, err := core.RunContext(context.Background(), c, w); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	n := len(images.images)
	if n < 2 {
		t.Fatalf("%d distinct crash images, want at least two", n)
	}
	factory := cfg.Checker
	if factory == nil {
		factory = core.NewOracleChecker
	}

	// The fresh references, each on its own instance and device.
	fresh := factory(core.RunEnv{Scratch: new(core.Scratch)})
	want := make([]mountOutcome, n)
	for i := range want {
		img := make([]byte, len(images.buf))
		images.load(i, img)
		fs := newFS(persist.New(pmem.WrapImage(img)))
		want[i] = check(fresh, fs, fs.Mount, img)
	}

	// The rotations: one device, one instance remounted image after image
	// (a fresh one after a panic, as the engine does).
	reused := factory(core.RunEnv{Scratch: new(core.Scratch)})
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for _, dir := range []string{"forward", "reverse"} {
		if dir == "reverse" {
			slices.Reverse(order)
		}
		img := make([]byte, len(images.buf))
		dev := pmem.WrapImage(img)
		var guest vfs.FS
		var last mountOutcome
		for k, i := range order {
			images.load(i, img)
			dev.Reset()
			mount := func() error { return guest.(vfs.Remounter).Remount() }
			if guest == nil {
				guest = newFS(persist.New(dev))
				if _, ok := guest.(vfs.Remounter); !ok {
					t.Fatalf("%T is no vfs.Remounter", guest)
				}
				mount = guest.Mount
			}
			got := check(reused, guest, mount, img)
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: image %d of %d: remounted %s, fresh %s", dir, i, n, describe(got), describe(want[i]))
			}
			if k > 0 && !reflect.DeepEqual(last.o, want[order[k-1]].o) {
				t.Fatalf("%s: image %d's observation changed when the guest remounted image %d", dir, order[k-1], i)
			}
			if last = got; got.panicked != "" {
				guest = nil
			}
		}
	}
}

// describe renders a mount outcome for a failure message.
func describe(o mountOutcome) string {
	return fmt.Sprintf("{err %q capture-err %q panic %q files %d observation %+v probe %+v image %016x}",
		o.err, o.capErr, o.panicked, len(o.st), o.o, o.probe, o.img)
}
