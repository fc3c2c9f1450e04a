package resilience

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// LabelRecord is one acknowledged Oracle answer in the write-ahead log:
// the answer's position in the cumulative acknowledged sequence
// (1-based), its pool index, and the label the Oracle returned. The WAL
// is the durable record of answers paid for between checkpoints;
// Snapshot + WAL replay together reconstruct a killed run's exact
// labeled set — and, for priced batch oracles, its exact cost ledger.
//
// Verdict is "abstain" for a billed abstention (Label is meaningless
// then) and empty for an ordinary label; Cost is the dollars billed for
// the answer. Both are omitted when zero, so a free label's record is
// plain {seq, index, label}.
type LabelRecord struct {
	Seq     int     `json:"seq"`
	Index   int     `json:"index"`
	Label   bool    `json:"label"`
	Verdict string  `json:"verdict,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
}

// Abstained reports whether the record is a billed abstention rather
// than a granted label.
func (r LabelRecord) Abstained() bool { return r.Verdict == "abstain" }

// LabelWAL is an append-only, fsync-per-append label log in JSON-lines
// format. Appends are idempotent by sequence number, so replaying a
// resumed run over a WAL that already holds its labels is a no-op — the
// property that makes Snapshot+WAL resume safe to re-crash.
//
// LabelWAL implements core.LabelSink. Safe for concurrent use, though
// the Session engine appends from a single goroutine.
type LabelWAL struct {
	mu      sync.Mutex
	f       *os.File
	lastSeq int
	appends int64
}

// OpenLabelWAL opens (creating if absent) the WAL at path and returns
// the valid records already present. A torn final line — the signature
// of a crash mid-append — is detected, logged out of existence (the file
// is truncated back to the last intact record) and does not surface as
// an error: losing the torn record is indistinguishable from crashing a
// moment earlier.
func OpenLabelWAL(path string) (*LabelWAL, []LabelRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("resilience: opening label WAL: %w", err)
	}
	records, validLen, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("resilience: truncating torn WAL tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &LabelWAL{f: f}
	if n := len(records); n > 0 {
		w.lastSeq = records[n-1].Seq
	}
	return w, records, nil
}

// scanWAL reads records until EOF or the first undecodable or
// unterminated line, returning the intact records and the byte length of
// the intact prefix. Only '\n'-terminated lines count as intact: Append
// always writes the newline with the record, so a final line without one
// is a torn tail from a crash mid-write even when its bytes happen to
// decode — counting it would make validLen exceed the file size and turn
// the truncate into an extend.
func scanWAL(f *os.File) ([]LabelRecord, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("resilience: reading label WAL: %w", err)
	}
	var (
		records  []LabelRecord
		validLen int64
		lastSeq  int
	)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail: the final append never got its newline
		}
		var rec LabelRecord
		if err := json.Unmarshal(data[:nl], &rec); err != nil {
			break // torn or corrupt tail: keep the intact prefix
		}
		if rec.Seq != lastSeq+1 {
			return nil, 0, fmt.Errorf("resilience: label WAL is out of sequence: record %d follows %d",
				rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		records = append(records, rec)
		validLen += int64(nl) + 1
		data = data[nl+1:]
	}
	return records, validLen, nil
}

// AppendRecord durably logs one acknowledged answer. Records at or
// below the last logged sequence are skipped (idempotent replay); the
// next record must extend the sequence by exactly one. Each append is
// fsync'd before returning, so an answer the Session considers granted
// survives a crash.
func (w *LabelWAL) AppendRecord(rec LabelRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if rec.Seq <= w.lastSeq {
		return nil
	}
	if rec.Seq != w.lastSeq+1 {
		return fmt.Errorf("resilience: label WAL append out of sequence: %d after %d", rec.Seq, w.lastSeq)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("resilience: appending to label WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("resilience: syncing label WAL: %w", err)
	}
	w.lastSeq = rec.Seq
	w.appends++
	return nil
}

// LastSeq returns the highest sequence number durably logged.
func (w *LabelWAL) LastSeq() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// Appends reports how many records this handle has written (replayed
// no-ops excluded).
func (w *LabelWAL) Appends() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends
}

// Close releases the underlying file. Append after Close fails.
func (w *LabelWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
