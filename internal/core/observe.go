package core

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"sync"
	"time"
	"unsafe"

	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
)

// This file is the observation table: each prefix memo keeps, per crash
// image it mounted (by a 128-bit content hash), what mounting it showed, and
// judges a state whose image is there in its own context without a mount.
// The check order is kept — mount, observation, judgement, then the probe
// after a passing judgement — so an entry whose judgement failed holds no
// probe result and cannot pass a state, which is mounted again. Nothing is
// stored with faults on or from a guest phase that panicked, timed out or
// was abandoned.

// obsTableBytes bounds a table's entries and interned contents; a full
// table still serves. obsEntryBytes is an entry's or a string's overhead.
const (
	obsTableBytes = 64 << 20
	obsEntryBytes = 96
)

// imageHash is a 128-bit content hash of a crash image: the XOR of its
// 64-byte lines' hashes, keyed by index, an all-zero line hashing to zero.
type imageHash [2]uint64

func (h *imageHash) xor(o imageHash) { h[0] ^= o[0]; h[1] ^= o[1] }

const hashLine = 64

var (
	lineSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}
	zeroLine  = [2]uint64{
		maphash.Bytes(lineSeeds[0], make([]byte, hashLine)),
		maphash.Bytes(lineSeeds[1], make([]byte, hashLine)),
	}
)

// line returns line l of img.
func line(img []byte, l int64) []byte {
	return img[l*hashLine : min((l+1)*hashLine, int64(len(img)))]
}

// lineHash hashes line l of img.
func lineHash(img []byte, l int64) imageHash {
	b := line(img, l)
	x, y := maphash.Bytes(lineSeeds[0], b), maphash.Bytes(lineSeeds[1], b)
	if len(b) == hashLine && x == zeroLine[0] && y == zeroLine[1] ||
		len(b) < hashLine && bytes.Count(b, []byte{0}) == len(b) {
		return imageHash{}
	}
	i := uint64(l) + 1
	return imageHash{mix64(x ^ i*0x9e3779b97f4a7c15), mix64(y ^ i*0xc2b2ae3d27d4eb4f)}
}

// mix64 is MurmurHash3's 64-bit finalizer, a bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// imageHasher keeps a rig's working image hash line by line, with a mirror
// of the image it describes (zero outside pages): moving it to another image
// rehashes only the lines that differ.
type imageHasher struct {
	lines  []imageHash
	total  imageHash
	mirror []byte
	pages  *pmem.PageSet
}

func newImageHasher(size int) *imageHasher {
	return &imageHasher{
		lines:  make([]imageHash, (int64(size)+hashLine-1)/hashLine),
		mirror: make([]byte, size),
		pages:  pmem.NewPageSet(int64(size)),
	}
}

// sync makes the hashes describe img on [lo, hi).
func (h *imageHasher) sync(img []byte, lo, hi int64) {
	for l := lo / hashLine; l*hashLine < hi; l++ {
		if b, m := line(img, l), line(h.mirror, l); !bytes.Equal(b, m) {
			copy(m, b)
			h.total.xor(h.lines[l])
			h.lines[l] = lineHash(img, l)
			h.total.xor(h.lines[l])
		}
	}
}

// syncHasher takes up the rig's hasher for the run and brings it to the
// working image over every page either may be non-zero on. It runs once per
// run, before its first state's delta lands (attempt); from then on the walk
// syncs the writes it lands at each fence (applyFence), so the hasher
// describes the base at every stateHash.
func (ck *checker) syncHasher() {
	rg := ck.rg
	if rg.hasher == nil {
		rg.hasher = newImageHasher(len(rg.baseline))
	}
	h, img := rg.hasher, ck.cur.img
	rg.basePages.Runs(h.pages, func(lo, hi int64) {
		for p := lo; p < hi; p += pmem.PageSize {
			if end := min(p+pmem.PageSize, hi); !bytes.Equal(img[p:end], h.mirror[p:end]) {
				h.sync(img, p, end)
			}
		}
	})
	h.pages.Assign(rg.basePages)
	ck.hasher = h
}

// stateHash returns the image hash of crash state st materialized in img
// on the current base: the base's, with the lines its key's runs touch
// rehashed. A post-syscall state is its base.
func (ck *checker) stateHash(img []byte, st crashState) imageHash {
	h, last := ck.hasher.total, int64(-1)
	forEachKeyRun(st.key, func(off int64, data string) {
		for l := max(off/hashLine, last+1); l*hashLine < off+int64(len(data)); l, last = l+1, l {
			h.xor(ck.hasher.lines[l])
			h.xor(lineHash(img, l))
		}
	})
	return h
}

// Interner shares immutable copies among a memo's observations: byte
// strings, and the oracle's recovered states by digest. held counts what it
// and its table hold; nothing more is interned once it reaches
// obsTableBytes. Safe for concurrent use; a nil Interner copies.
type Interner struct {
	mu     sync.Mutex
	m      map[string][]byte
	states map[uint64]*oracleObservation
	held   int64
}

// Bytes returns a copy of b that is never written, shared with every
// earlier equal b. Nil stays nil.
func (in *Interner) Bytes(b []byte) []byte {
	if len(b) == 0 || in == nil {
		return bytes.Clone(b)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if v, ok := in.m[string(b)]; ok {
		return v
	}
	if in.held >= obsTableBytes {
		return bytes.Clone(b)
	}
	if in.m == nil {
		in.m = make(map[string][]byte)
	}
	s := string(b)
	in.m[s] = unsafe.Slice(unsafe.StringData(s), len(s))
	in.held += int64(len(s)) + obsEntryBytes
	return in.m[s]
}

// state returns the interned observation of a state identical to st, whose
// digest is sum, or nil.
func (in *Interner) state(sum uint64, st vfs.State) *oracleObservation {
	in.mu.Lock()
	defer in.mu.Unlock()
	if o := in.states[sum]; o != nil && o.st.Identical(st) {
		return o
	}
	return nil
}

// keepState interns o, a state whose digest is sum, and charges its bytes
// here once: o then holds nothing beyond what is interned. Taken digests
// and a full interner leave o as it is.
func (in *Interner) keepState(sum uint64, o *oracleObservation) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.states[sum]; ok || in.held >= obsTableBytes {
		return
	}
	if in.states == nil {
		in.states = make(map[uint64]*oracleObservation)
	}
	in.states[sum] = o
	in.held += int64(o.bytes) + obsEntryBytes
	o.bytes = 0
}

// obsTable maps image hashes to what mounting them showed: the mount's
// failure, or the observation and, once a judgement passed, the probe's
// finding. Entries are immutable once stored.
type obsTable struct {
	Interner
	entries map[imageHash]*obsEntry
}

type obsEntry struct {
	mount, probe *Finding
	o            Observation
	probed       bool
}

func (t *obsTable) lookup(key imageHash) *obsEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries[key]
}

func (t *obsTable) store(key imageHash, e *obsEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.held >= obsTableBytes {
		return
	}
	t.entries[key] = e
	t.held += obsEntryBytes
	if e.o != nil {
		t.held += int64(e.o.Bytes())
	}
}

// checkState checks one crash state under the run's correctness contract
// (§3.3). A state the slot's table entry settles in this context is judged
// from the entry. Anything else is mounted on dev — a failed mount is
// classified here, as recovery itself failing is a bug no contract needs to
// see — observed, judged, and probed after a passing judgement; with a
// table, the entry is left in sl.kept. The guest is the checker's, remounted,
// or a fresh one (mount). The device is this call's private, just-rebooted
// view of the crash image (optionally carrying an attached fault injector),
// so checkState is goroutine-safe; it normally runs under
// the sandbox's guard (sandbox.go), which converts guest panics, media
// faults, and hangs into classified outcomes.
//
// The stage windows tile so the -stats sum tracks wall-clock: mountStart is
// an already-open mount window (opened by the caller before arming the
// guard), and the returned checkStart is the open check window, closed by
// the caller after the lease is settled and the image restored. Both are
// the zero time when observability is off.
func (ck *checker) checkState(sl *slot, dev *pmem.Device, ctx *CheckContext, mountStart time.Time) (v *Violation, checkStart time.Time) {
	if e := sl.hit; e != nil {
		f := e.mount
		if f == nil {
			f = ck.contract.Judge(e.o, ctx)
		}
		// An entry without a probe result cannot pass a state.
		if f != nil || e.probed {
			if f == nil {
				f = e.probe
			}
			ck.obs.Inc(obs.CtrObservationsServed)
			return ck.finding(ctx, f), mountStart
		}
	}
	fs, err := ck.mount(sl, dev)
	ck.obs.ObserveSince(obs.StageMount, mountStart)
	checkStart = ck.obs.Start()
	var e obsEntry
	var f *Finding
	if err != nil {
		f = &Finding{Kind: VUnmountable, Detail: fmt.Sprintf("mount failed: %v", err)}
		e.mount = f
	} else {
		var in *Interner
		if ck.table != nil {
			in = &ck.table.Interner
		}
		e.o = ck.contract.Observe(fs, in)
		if f = ck.contract.Judge(e.o, ctx); f == nil {
			f = ck.contract.Probe(fs, e.o)
			e.probed, e.probe = true, f
		}
	}
	if ck.table != nil {
		kept := e // a copy, so the table-less path allocates no entry
		sl.kept = &kept
	}
	return ck.finding(ctx, f), checkStart
}

// mount mounts the crash image on dev in the guest phase: it remounts the
// guest attempt handed the slot, or builds a fresh one and leaves it on
// the slot, for attempt to keep once the phase settles clean.
func (ck *checker) mount(sl *slot, dev *pmem.Device) (vfs.FS, error) {
	if g, ok := sl.guest.(vfs.Remounter); ok {
		return sl.guest, g.Remount()
	}
	sl.guest = ck.cfg.NewFS(persist.New(dev))
	return sl.guest, sl.guest.Mount()
}
