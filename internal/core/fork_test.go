package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"chipmunk/internal/ace"
	"chipmunk/internal/fs/extdax"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
	"chipmunk/internal/workload"
)

// TestPrefixForkChainMatchesUnforked: a fork chain leaves its recording
// device, after every run, exactly as an unforked run of the same workload
// leaves its own — both images, the in-flight writes, the dirty lines and
// the counters — and returns the same Result. The recording images never
// reach a Result on the DAX systems, whose guests read no PM before a
// mount, so only this test sees a fork restore the wrong device state.
// Over a seq-2-dax slice, and the slice again with a sync after each
// first op so that prefixes commit, each run keeps a point at the root and
// at the prefix it shares with the next, and the next starts from it.
func TestPrefixForkChainMatchesUnforked(t *testing.T) {
	ws := ace.Seq2Dax()[:240]
	for _, w := range ace.Seq2Dax()[:240] {
		ops := append([]workload.Op{w.Ops[0], {Kind: workload.OpSync}}, w.Ops[1:]...)
		ws = append(ws, workload.Workload{Name: w.Name + "-synced", Ops: ops})
	}
	for _, v := range []extdax.Variant{extdax.Ext4, extdax.XFS} {
		cfg := Config{NewFS: func(pm *persist.PM) vfs.FS { return extdax.New(pm, v) }}
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
				t.Errorf("%s: Result %+v, unforked %+v", w.Name, got, want)
			}
			d, e := c.rg.dev, u.rg.dev
			switch {
			case !bytes.Equal(c.rg.vol, u.rg.vol) || !bytes.Equal(c.rg.pers, u.rg.pers):
				t.Errorf("%s: recording images differ from the unforked run's", w.Name)
			case !reflect.DeepEqual(d.InFlightWrites(), e.InFlightWrites()),
				!reflect.DeepEqual(d.DirtyUnflushedLines(), e.DirtyUnflushedLines()):
				t.Errorf("%s: in-flight writes or dirty lines differ from the unforked run's", w.Name)
			case d.Stats() != e.Stats():
				t.Errorf("%s: device counters %v, unforked %v", w.Name, d.Stats(), e.Stats())
			}
			u.Close()
		}
		c.Close()
		if forked < len(ws)/2 {
			t.Errorf("variant %d: %d of %d runs forked", v, forked, len(ws))
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
