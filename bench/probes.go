package main

import (
	"context"
	"fmt"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/core"
	"chipmunk/internal/persist"
	"chipmunk/internal/pmem"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// probeDevSize is the fresh device every micro-probe runs on.
const probeDevSize = 1 << 20

// perCall times n calls of f and returns the mean in the unit of scale
// (time.Microsecond for us, time.Nanosecond for ns).
func perCall(n int, scale time.Duration, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start)) / float64(n) / float64(scale)
}

// probeLayers measures the layers below the engine in isolation: suite
// generation and hashing, the device primitives, and each guest's mkfs,
// mount, capture and op execution. t.scale sizes the iteration counts.
func probeLayers(ctx context.Context, t probeTarget, tr *tracer) (map[string]float64, error) {
	m, n := map[string]float64{}, t.scale
	root := tr.begin("probe.layers", 0)
	defer tr.finish(root)

	// ace / workload: what set-up pays before the first engine run.
	var formatted int
	for _, name := range t.suites {
		start := time.Now()
		suite, err := ace.SuiteByName(name)
		if err != nil {
			return nil, err
		}
		m["ace.generate_s"] += time.Since(start).Seconds()
		start = time.Now()
		workload.SuiteHash(suite)
		m["workload.suitehash_ms"] += time.Since(start).Seconds() * 1e3
		start = time.Now()
		for _, w := range truncate(suite, 10*n) {
			if _, err := workload.Parse(workload.Format(w)); err != nil {
				return nil, fmt.Errorf("workload %s does not round-trip: %w", w.Name, err)
			}
			formatted++
		}
		m["workload.format_parse_us"] += time.Since(start).Seconds() * 1e6
	}
	m["workload.format_parse_us"] = ratio(m["workload.format_parse_us"], float64(formatted))

	// pmem / persist on a fresh device.
	m["pmem.device_new_us"] = perCall(n, time.Microsecond, func() { pmem.NewDevice(probeDevSize) })
	dev := pmem.NewDevice(probeDevSize)
	pm := persist.New(dev)
	line := make([]byte, 64)
	off := int64(0)
	m["pmem.store_flush_fence_ns"] = perCall(100*n, time.Nanosecond, func() {
		pm.Store(off, line)
		pm.Flush(off, len(line))
		pm.Fence()
		off = (off + 64) % probeDevSize
	})
	td := pmem.NewTrackingDevice(make([]byte, probeDevSize))
	tpm := persist.New(persist.WrapTracking(td))
	page := make([]byte, 4096)
	var rollback time.Duration
	for i := 0; i < n; i++ {
		for o := int64(0); o < probeDevSize; o += int64(len(page)) {
			tpm.PersistStore(o, page)
		}
		start := time.Now()
		td.Rollback()
		rollback += time.Since(start)
	}
	m["pmem.rollback_us_per_mb"] = rollback.Seconds() * 1e6 / float64(n) / (probeDevSize >> 20)

	// vfs / fs, averaged over the guests this workload mounts.
	for _, sys := range t.systems {
		g, err := probeGuest(sys.Factory(t.bugs), t.sample, n)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", sys.Name, err)
		}
		for k, v := range g {
			m[k] += v / float64(len(t.systems))
		}
	}

	// core: the fixed cost of one engine run, with nothing to check.
	floorRuns := 25 * n
	var ferr error
	m["core.run_floor_us"] = perCall(floorRuns, time.Microsecond, func() {
		if _, err := core.RunContext(ctx, t.floor, workload.Workload{Name: "floor"}); err != nil && ferr == nil {
			ferr = fmt.Errorf("zero-op run: %w", err)
		}
	})
	return m, ferr
}

// probeGuest times one guest's primitives on fresh devices: mkfs, running
// the sample workload with no crash checking, capturing the resulting tree,
// and remounting it.
func probeGuest(newFS func(*persist.PM) vfs.FS, sample workload.Workload, n int) (map[string]float64, error) {
	var mkfs, exec, capture, mount time.Duration
	ops := 0
	for i := 0; i < n; i++ {
		fs := newFS(persist.New(pmem.NewDevice(probeDevSize)))
		start := time.Now()
		if err := fs.Mkfs(); err != nil {
			return nil, fmt.Errorf("mkfs: %w", err)
		}
		mkfs += time.Since(start)

		start = time.Now()
		ops += len(workload.Run(fs, sample, workload.Hooks{}))
		exec += time.Since(start)

		start = time.Now()
		if _, err := vfs.Capture(fs); err != nil {
			return nil, fmt.Errorf("capture: %w", err)
		}
		capture += time.Since(start)

		if err := fs.Sync(); err != nil {
			return nil, fmt.Errorf("sync: %w", err)
		}
		if err := fs.Unmount(); err != nil {
			return nil, fmt.Errorf("unmount: %w", err)
		}
		start = time.Now()
		if err := fs.Mount(); err != nil {
			return nil, fmt.Errorf("mount: %w", err)
		}
		mount += time.Since(start)
	}
	us := func(d time.Duration, per int) float64 { return ratio(d.Seconds()*1e6, float64(per)) }
	return map[string]float64{
		"fs.mkfs_us":        us(mkfs, n),
		"fs.exec_us_per_op": us(exec, ops),
		"vfs.capture_us":    us(capture, n),
		"fs.mount_us":       us(mount, n),
	}, nil
}
