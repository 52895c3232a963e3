package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/bugs"
	"chipmunk/internal/fs/extdax"
	"chipmunk/internal/fs/nova"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// TestPrefixForkChainMatchesUnforked: a fork chain leaves its recording
// device, after every run, exactly as an unforked run of the same workload
// leaves its own — both images, the page set it marked, the in-flight
// writes, the dirty lines and the counters — and returns the same Result.
// The recording images never reach a Result on the DAX systems, whose
// guests read no PM before a mount, and the page set reaches none on any
// system, so only this test sees a fork restore the wrong device state.
// Over a seq-2-dax slice, and the slice again with a sync after each
// first op so that prefixes commit, on the DAX systems, and a seq-2 slice
// on NOVA and NOVA-Fortis (with every bug, so bugs 9 and 10 defer work to
// each syscall's end), each run keeps a point at the root and at the
// prefix it shares with the next, and the next starts from it.
func TestPrefixForkChainMatchesUnforked(t *testing.T) {
	dax := ace.Seq2Dax()[:240]
	for _, w := range ace.Seq2Dax()[:240] {
		ops := append([]workload.Op{w.Ops[0], {Kind: workload.OpSync}}, w.Ops[1:]...)
		dax = append(dax, workload.Workload{Name: w.Name + "-synced", Ops: ops})
	}
	cases := []struct {
		name  string
		newFS func(pm *persist.PM) vfs.FS
		ws    []workload.Workload
	}{
		{"ext4-dax", func(pm *persist.PM) vfs.FS { return extdax.New(pm, extdax.Ext4) }, dax},
		{"xfs-dax", func(pm *persist.PM) vfs.FS { return extdax.New(pm, extdax.XFS) }, dax},
		{"nova", func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.None()) }, ace.Seq2()[:240]},
		{"nova-fortis", func(pm *persist.PM) vfs.FS { return nova.New(pm, bugs.AllSet(), nova.WithFortis()) }, ace.Seq2()[:240]},
	}
	for _, tc := range cases {
		cfg := Config{NewFS: tc.newFS}
		ws := tc.ws
		c := (*PrefixMemo)(nil).Chain(cfg)
		forked := 0
		for i, w := range ws {
			keep := []int{0}
			if i+1 < len(ws) {
				keep = append(keep, sharedOps(w, ws[i+1]))
			}
			if len(c.points) > 0 && sharedOps(w, workload.Workload{Ops: c.path}) > 0 {
				forked++
			}
			got, err := c.Run(context.Background(), w, keep)
			if err != nil {
				t.Fatal(err)
			}
			u := (*PrefixMemo)(nil).Chain(cfg)
			want, err := u.Run(context.Background(), w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s: Result %+v, unforked %+v", tc.name, w.Name, got, want)
			}
			d, e := c.rg.dev, u.rg.dev
			switch {
			case !bytes.Equal(c.rg.vol, u.rg.vol) || !bytes.Equal(c.rg.pers, u.rg.pers):
				t.Errorf("%s: %s: recording images differ from the unforked run's", tc.name, w.Name)
			case !reflect.DeepEqual(c.rg.devPages, u.rg.devPages):
				t.Errorf("%s: %s: recording page set differs from the unforked run's", tc.name, w.Name)
			case !reflect.DeepEqual(d.InFlightWrites(), e.InFlightWrites()):
				t.Errorf("%s: %s: in-flight writes differ from the unforked run's", tc.name, w.Name)
			case d.Stats() != e.Stats():
				t.Errorf("%s: %s: device counters %v, unforked %v", tc.name, w.Name, d.Stats(), e.Stats())
			}
			u.Close()
		}
		c.Close()
		if forked < len(ws)/2 {
			t.Errorf("%s: %d of %d runs forked", tc.name, forked, len(ws))
		}
	}
}

// sharedOps is the length of the op prefix a and b share.
func sharedOps(a, b workload.Workload) int {
	n := 0
	for n < len(a.Ops) && n < len(b.Ops) && a.Ops[n] == b.Ops[n] {
		n++
	}
	return n
}
