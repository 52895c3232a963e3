package lease

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// A checkpoint is an append-only JSONL file: one header line identifying the
// run, then one line per state transition the owner must not lose — a
// credited result, a spent unit. The coordinator appends and fsyncs a line
// the moment the transition happens, so a SIGKILLed coordinator loses at most
// the line it was writing, and ReadLog skips that torn tail the same way
// obs.ReadJournal does. Replaying the recorded lines through the owner's own
// credit path rebuilds the dead coordinator's state; only the missing units
// are leased out again. The record types, and what a header must match, are
// the owner's.

// MaxLine bounds one checkpoint line during reads, and with it one result
// body on the wire (a result is what gets checkpointed). Payloads carry full
// violation ledgers and corpus entries, so the cap is generous.
const MaxLine = 16 << 20

// ReadLog reads the checkpoint at path tolerantly, handing each non-empty
// line to decode; lines decode refuses (false) — corrupt, of an unknown kind,
// or the torn final line of a SIGKILLed coordinator — are counted in skipped,
// reported, never silent. A missing file is a first run: nothing decoded, no
// error. owner prefixes errors ("campaign", "fleet").
func ReadLog(owner, path string, decode func(line []byte) bool) (skipped int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("%s: checkpoint: %w", owner, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), MaxLine)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 && !decode(line) {
			skipped++
		}
	}
	if err := sc.Err(); err != nil {
		return skipped, fmt.Errorf("%s: checkpoint: %w", owner, err)
	}
	return skipped, nil
}

// Log appends records to a checkpoint file. A nil *Log discards appends, so
// a coordinator without -resume needs no branches.
type Log struct {
	owner string
	f     *os.File
}

// OpenLog opens path for appending, first writing header when it is non-nil
// (a new or headerless file). Call after ReadLog and the owner's header
// validation.
func OpenLog(owner, path string, header any) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: checkpoint: %w", owner, err)
	}
	l := &Log{owner: owner, f: f}
	if header != nil {
		if err := l.Append(header); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

// Append records rec as one JSON line, durably: fsync per append, because
// units are coarse and surviving a coordinator SIGKILL is the point. An owner
// that gets an error must fail the run — a checkpoint that silently stops
// recording is worse than a failed run, since resume would re-run units it
// believes missing.
func (l *Log) Append(rec any) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = l.f.Write(append(line, '\n'))
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("%s: checkpoint: %w", l.owner, err)
	}
	return nil
}

// Close closes the checkpoint file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}
