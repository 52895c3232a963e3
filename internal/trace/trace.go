// Package trace defines the write log that Chipmunk records while a
// workload runs. Each entry corresponds to one call of a centralized
// persistence function (non-temporal memcpy/memset, buffer flush, store
// fence) — the same function-level granularity the paper's Kprobe/Uprobe
// loggers capture — plus markers delimiting the system call that issued the
// surrounding writes.
//
// Function-level entries are the unit of crash-state construction: one
// MemcpyNT call is one logical in-flight write no matter how many cache
// lines it spans. This is the coalescing insight from §3.2 of the paper
// (a 1 KB file write is one logical write, not 128 8-byte stores).
package trace

import (
	"fmt"
	"strings"
)

// Kind is the type of a log entry.
type Kind uint8

const (
	// KindNT is a non-temporal store (memcpy_nt / memset_nt).
	KindNT Kind = iota
	// KindFlush is a cache-line write-back of a buffer.
	KindFlush
	// KindFence is a store fence; everything in flight becomes durable.
	KindFence
	// KindSyscallBegin marks the start of a system call in the workload.
	KindSyscallBegin
	// KindSyscallEnd marks the end of a system call.
	KindSyscallEnd
	// KindStore is a plain cached store. Only recorded in per-store tracing
	// mode (the Yat/Vinter-style ablation); ignored by the replayer, which
	// relies on KindFlush captures for durability.
	KindStore
)

func (k Kind) String() string {
	switch k {
	case KindNT:
		return "nt"
	case KindFlush:
		return "flush"
	case KindFence:
		return "fence"
	case KindSyscallBegin:
		return "syscall-begin"
	case KindSyscallEnd:
		return "syscall-end"
	case KindStore:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Entry is one recorded event.
type Entry struct {
	Seq  int    // position in the log
	Kind Kind   // event type
	Off  int64  // device offset (NT/Flush/Store)
	Data []byte // bytes that would persist (NT: stored bytes; Flush: capture)
	Sys  int    // index of the enclosing system call, -1 if outside any
	Name string // syscall name for markers, persistence fn name otherwise
}

// IsWrite reports whether the entry represents a durable-intent write that
// participates in crash-state construction.
func (e Entry) IsWrite() bool { return e.Kind == KindNT || e.Kind == KindFlush }

func (e Entry) String() string {
	switch e.Kind {
	case KindSyscallBegin, KindSyscallEnd:
		return fmt.Sprintf("#%d %s sys=%d %s", e.Seq, e.Kind, e.Sys, e.Name)
	case KindFence:
		return fmt.Sprintf("#%d fence sys=%d", e.Seq, e.Sys)
	default:
		return fmt.Sprintf("#%d %s off=%d len=%d sys=%d %s", e.Seq, e.Kind, e.Off, len(e.Data), e.Sys, e.Name)
	}
}

// Log is an append-only sequence of entries. The current syscall index is
// tracked so persistence-function probes can stamp entries without knowing
// about the executor. Entry data is copied into one log-owned arena rather
// than allocated per entry; a growth reallocation copies the arena prefix,
// so earlier entries' Data views stay valid and immutable.
type Log struct {
	entries []Entry
	arena   []byte
	curSys  int
}

// NewLog returns an empty log with no enclosing system call.
func NewLog() *Log {
	return &Log{curSys: -1}
}

// Reset empties the log for reuse, retaining its entry and arena storage.
// Callers must guarantee no reader still holds entries from the previous
// use.
func (l *Log) Reset() {
	l.entries = l.entries[:0]
	l.arena = l.arena[:0]
	l.curSys = -1
}

// DataLen returns the bytes of entry data the log holds.
func (l *Log) DataLen() int { return len(l.arena) }

// Truncate cuts the log back to its first n entries and dataLen data bytes
// (its Len and DataLen then), outside any system call, for a fork to record
// on. Callers must guarantee no reader still holds a dropped entry.
func (l *Log) Truncate(n, dataLen int) {
	l.entries = l.entries[:n]
	l.arena = l.arena[:dataLen]
	l.curSys = -1
}

// Append adds an entry, assigning its sequence number and current syscall.
// The data bytes are copied, so callers may reuse their buffer immediately.
func (l *Log) Append(kind Kind, off int64, data []byte, name string) {
	var cp []byte
	if len(data) > 0 {
		start := len(l.arena)
		l.arena = append(l.arena, data...)
		cp = l.arena[start : start+len(data) : start+len(data)]
	}
	l.entries = append(l.entries, Entry{
		Seq:  len(l.entries),
		Kind: kind,
		Off:  off,
		Data: cp,
		Sys:  l.curSys,
		Name: name,
	})
}

// BeginSyscall records a syscall-begin marker. Index is the position of the
// call in the workload; name is a human-readable rendering for reports.
func (l *Log) BeginSyscall(index int, name string) {
	l.curSys = index
	l.Append(KindSyscallBegin, 0, nil, name)
}

// EndSyscall records a syscall-end marker and returns to "outside" state.
func (l *Log) EndSyscall(index int, name string) {
	l.Append(KindSyscallEnd, 0, nil, name)
	l.curSys = -1
}

// CurrentSyscall returns the syscall index subsequent entries are stamped
// with (-1 when outside a call).
func (l *Log) CurrentSyscall() int { return l.curSys }

// Len returns the number of entries.
func (l *Log) Len() int { return len(l.entries) }

// At returns entry i.
func (l *Log) At(i int) Entry { return l.entries[i] }

// Entries returns the backing slice; callers must not mutate it.
func (l *Log) Entries() []Entry { return l.entries }

// Writes returns the indices of durable-intent writes in [from, to).
func (l *Log) Writes(from, to int) []int {
	var out []int
	for i := from; i < to && i < len(l.entries); i++ {
		if l.entries[i].IsWrite() {
			out = append(out, i)
		}
	}
	return out
}

// SyscallName returns the recorded name of syscall index i, or "" if the
// log holds no marker for it.
func (l *Log) SyscallName(i int) string {
	for _, e := range l.entries {
		if e.Kind == KindSyscallBegin && e.Sys == i {
			return e.Name
		}
	}
	return ""
}

// SyscallCount returns one past the highest syscall index seen.
func (l *Log) SyscallCount() int {
	max := -1
	for _, e := range l.entries {
		if e.Sys > max {
			max = e.Sys
		}
	}
	return max + 1
}

// Dump renders the log for debugging and bug reports.
func (l *Log) Dump() string {
	var b strings.Builder
	for _, e := range l.entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Apply replays entry e onto img (durable-intent writes only).
func Apply(img []byte, e Entry) {
	if !e.IsWrite() {
		return
	}
	copy(img[e.Off:], e.Data)
}

// ReplayAll applies every durable-intent write in the log onto img in
// program order, producing the state an uninterrupted run persists. Fences
// are irrelevant here because all writes land.
func ReplayAll(img []byte, l *Log) {
	for _, e := range l.entries {
		Apply(img, e)
	}
}
