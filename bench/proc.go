package main

import (
	"runtime"
	"syscall"
	"time"
)

// usage is what one measured region cost this process.
type usage struct {
	Wall       time.Duration
	User, Sys  time.Duration
	AllocBytes uint64
	GCCycles   uint32
	GCPause    time.Duration
}

func (u usage) cpu() time.Duration { return u.User + u.Sys }

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

func rusageSelf() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusageSelf().Maxrss) / 1024 }

// measure runs f and reports its wall time, the CPU the process burned
// meanwhile, and what it allocated. The MemStats reads stop the world, so
// they sit outside the timed interval.
func measure(f func() error) (usage, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r0 := rusageSelf()
	start := time.Now()
	err := f()
	wall := time.Since(start)
	r1 := rusageSelf()
	runtime.ReadMemStats(&m1)
	return usage{
		Wall:       wall,
		User:       tv(r1.Utime) - tv(r0.Utime),
		Sys:        tv(r1.Stime) - tv(r0.Stime),
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		GCCycles:   m1.NumGC - m0.NumGC,
		GCPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}, err
}
