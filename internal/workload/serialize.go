package workload

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// Format serializes a workload as a line-oriented reproducer program, the
// way Syzkaller emits repro files. The format round-trips through Parse:
//
//	# name: fuzz-mut-17
//	creat /f0 fd=0
//	open /f0 fd=1
//	pwrite fd=0 off=0 size=64 seed=1
//	rename /f0 /f1
//	sync
func Format(w Workload) string {
	var b []byte
	if w.Name != "" {
		b = append(append(append(b, "# name: "...), w.Name...), '\n')
	}
	for _, op := range w.Ops {
		b = append(AppendOp(b, op), '\n')
	}
	return string(b)
}

// AppendOp appends op's Format line, without the newline, to b. It
// allocates only to grow b, so the engine can key per-op prefixes on the
// canonical text cheaply.
func AppendOp(b []byte, op Op) []byte {
	b = append(b, op.Kind.String()...)
	switch op.Kind {
	case OpLink, OpRename:
		b = append(append(append(append(b, ' '), op.Path...), ' '), op.Path2...)
	case OpSetxattr, OpRemovexattr:
		b = append(append(append(append(b, ' '), op.Path...), " attr="...), op.Path2...)
	case OpClose:
		// fd-only
	case OpSync, OpKVSync:
		// no args
	case OpKVPut, OpKVDel, OpKVGet:
		// Keys are not "/"-prefixed paths, so they need an explicit tag.
		b = append(append(b, " key="...), op.Path...)
	default:
		if op.Path != "" {
			b = append(append(b, ' '), op.Path...)
		}
	}
	if op.FDSlot >= 0 && !op.Kind.AppLevel() {
		b = strconv.AppendInt(append(b, " fd="...), int64(op.FDSlot), 10)
	}
	switch op.Kind {
	case OpPwrite, OpFalloc:
		b = strconv.AppendInt(append(b, " off="...), op.Off, 10)
	}
	switch op.Kind {
	case OpWrite, OpPwrite, OpTruncate, OpFalloc, OpKVPut, OpKVGet:
		b = strconv.AppendInt(append(b, " size="...), op.Size, 10)
	}
	switch op.Kind {
	case OpWrite, OpPwrite, OpSetxattr, OpKVPut, OpKVGet:
		b = strconv.AppendUint(append(b, " seed="...), uint64(op.Seed), 10)
	}
	return b
}

var kindByName = func() map[string]OpKind {
	m := map[string]OpKind{}
	for k := OpCreat; k <= OpKVGet; k++ {
		m[k.String()] = k
	}
	return m
}()

// Parse reads a reproducer program produced by Format.
func Parse(src string) (Workload, error) {
	var w Workload
	sc := bufio.NewScanner(strings.NewReader(src))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rest, ok := strings.CutPrefix(text, "# name:"); ok {
				w.Name = strings.TrimSpace(rest)
			}
			continue
		}
		op, err := parseOp(text)
		if err != nil {
			return Workload{}, fmt.Errorf("line %d: %w", line, err)
		}
		w.Ops = append(w.Ops, op)
	}
	if err := sc.Err(); err != nil {
		return Workload{}, err
	}
	return w, nil
}

func parseOp(text string) (Op, error) {
	fields := strings.Fields(text)
	kind, ok := kindByName[fields[0]]
	if !ok {
		return Op{}, fmt.Errorf("unknown op %q", fields[0])
	}
	op := Op{Kind: kind, FDSlot: -1}
	var paths []string
	for _, f := range fields[1:] {
		switch {
		case strings.HasPrefix(f, "fd="):
			v, err := strconv.Atoi(f[3:])
			if err != nil {
				return Op{}, fmt.Errorf("bad fd %q", f)
			}
			op.FDSlot = v
		case strings.HasPrefix(f, "off="):
			v, err := strconv.ParseInt(f[4:], 10, 64)
			if err != nil {
				return Op{}, fmt.Errorf("bad off %q", f)
			}
			op.Off = v
		case strings.HasPrefix(f, "size="):
			v, err := strconv.ParseInt(f[5:], 10, 64)
			if err != nil {
				return Op{}, fmt.Errorf("bad size %q", f)
			}
			op.Size = v
		case strings.HasPrefix(f, "attr="):
			op.Path2 = f[5:]
		case strings.HasPrefix(f, "key="):
			op.Path = f[4:]
		case strings.HasPrefix(f, "seed="):
			v, err := strconv.ParseUint(f[5:], 10, 32)
			if err != nil {
				return Op{}, fmt.Errorf("bad seed %q", f)
			}
			op.Seed = uint32(v)
		case strings.HasPrefix(f, "/"):
			paths = append(paths, f)
		default:
			return Op{}, fmt.Errorf("unexpected token %q", f)
		}
	}
	if len(paths) > 0 {
		op.Path = paths[0]
	}
	if len(paths) > 1 {
		op.Path2 = paths[1]
	}
	if len(paths) > 2 {
		return Op{}, fmt.Errorf("too many paths in %q", text)
	}
	return op, nil
}
