package pmem

import "fmt"

// This file is the opt-in fault injector. The base device models exactly one
// crash outcome: an in-flight write is either wholly lost or wholly applied.
// Real PM fails in more ways — WITCHER and the Vinter line of tools treat
// torn sub-cache-line stores and uncorrectable media errors as first-class
// crash outcomes — so the injector widens the model along three axes, all
// seeded and fully deterministic:
//
//   - torn stores: a replayed in-flight write persists only a word-aligned
//     prefix, modeling a cache line that was partially written back when
//     power failed;
//   - bit corruption: one bit of a crash image flips, modeling media decay
//     on a cold image;
//   - read-time media errors: loads touching a poisoned cache line raise
//     *MediaError (the software-visible form of an uncorrectable machine
//     check), which the engine's check sandbox catches and classifies.
//
// Determinism contract: every decision is a pure function of (Seed, site) —
// the log sequence number for tears, the per-state salt for flips and
// poisoned lines — never of scheduling, so serial and parallel censuses
// agree byte-for-byte and a quarantined state fails the same way on retry.

// FaultConfig configures the injector. The zero value injects nothing; rates
// are expressed as "roughly one in N" with 0 disabling that fault class.
type FaultConfig struct {
	// Seed keys every injection decision; runs with equal seeds inject
	// identical faults.
	Seed uint64
	// TearOneInN tears roughly one in N replayed in-flight writes down to a
	// word-aligned prefix (sub-cache-line granularity). 0 disables tearing.
	TearOneInN int
	// FlipOneInN corrupts one bit in roughly one in N crash images.
	// 0 disables corruption.
	FlipOneInN int
	// ReadErrOneInN poisons roughly one in N cache lines per crash state;
	// any Load/LoadInto touching a poisoned line panics with *MediaError.
	// 0 disables media errors.
	ReadErrOneInN int
}

// Enabled reports whether any fault class is active.
func (c *FaultConfig) Enabled() bool {
	return c != nil && (c.TearOneInN > 0 || c.FlipOneInN > 0 || c.ReadErrOneInN > 0)
}

// DefaultFaults returns the rates the -faults CLI flag enables: frequent
// enough that a suite exercises every fault class, rare enough that most
// crash states still check cleanly.
func DefaultFaults(seed uint64) *FaultConfig {
	return &FaultConfig{Seed: seed, TearOneInN: 8, FlipOneInN: 16, ReadErrOneInN: 4096}
}

// MediaError is the read-time media fault: loads touching a poisoned cache
// line panic with *MediaError, modeling the uncorrectable-error machine
// check real PM raises. It implements error so recovery code can convert it
// (persist.PM.TryLoad) and the engine sandbox can classify it.
type MediaError struct {
	// Off is the cache-line-aligned offset of the poisoned line.
	Off int64
}

func (e *MediaError) Error() string {
	return fmt.Sprintf("pmem: media error reading line at offset %d", e.Off)
}

// Injector makes the per-site fault decisions for one crash state. A nil
// *Injector is valid and injects nothing, so call sites need no guards.
type Injector struct {
	cfg  FaultConfig
	salt uint64
}

// NewInjector builds the injector for one crash state. salt distinguishes
// states (derived from the crash point: fence ordinal, subset rank, syscall)
// so different states poison different lines and flip different bits, while
// the same state faults identically on every retry and in every worker.
func NewInjector(cfg *FaultConfig, salt uint64) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: *cfg, salt: salt}
}

// mix is the splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Per-fault-class domain separators so one seed drives independent streams.
const (
	tearDomain = 0x7465617273746f72 // "tearstor"
	flipDomain = 0x666c697062697473 // "flipbits"
	readDomain = 0x726561646572726f // "readerro"
)

// TornPrefix returns how many bytes of an n-byte in-flight write (trace
// sequence number seq) reach the media: n when untorn, otherwise a
// word-aligned cut in [WordSize, n). Keyed by seq alone — not the per-state
// salt — so a write tears identically in every state that replays it, which
// keeps dedup (performed on untorn images) and retries deterministic.
func (in *Injector) TornPrefix(seq uint64, n int) int {
	if in == nil || in.cfg.TearOneInN <= 0 || n <= WordSize {
		return n
	}
	h := mix(in.cfg.Seed ^ tearDomain ^ seq*0x9e3779b97f4a7c15)
	if h%uint64(in.cfg.TearOneInN) != 0 {
		return n
	}
	words := (n - 1) / WordSize // cuts land strictly inside the write
	return WordSize * (1 + int(mix(h)%uint64(words)))
}

// FlipSite picks the bit, if any, that this state's corruption flips in an
// image of size bytes: the caller flips it, so it can land through an undo
// log. Keyed by the per-state salt: the same state always flips the same
// bit, different states flip different ones.
func (in *Injector) FlipSite(size int) (off int64, bit int, flipped bool) {
	if in == nil || in.cfg.FlipOneInN <= 0 || size == 0 {
		return 0, 0, false
	}
	h := mix(in.cfg.Seed ^ flipDomain ^ in.salt*0x9e3779b97f4a7c15)
	if h%uint64(in.cfg.FlipOneInN) != 0 {
		return 0, 0, false
	}
	return int64(mix(h+1) % uint64(size)), int(mix(h+2) % 8), true
}

// Poisoned reports whether reads of the given cache line raise a media
// error in this state.
func (in *Injector) Poisoned(line int64) bool {
	if in == nil || in.cfg.ReadErrOneInN <= 0 {
		return false
	}
	h := mix(in.cfg.Seed ^ readDomain ^ in.salt ^ uint64(line)*0x9e3779b97f4a7c15)
	return h%uint64(in.cfg.ReadErrOneInN) == 0
}
