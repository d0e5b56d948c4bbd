package runledger

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Writer appends records to an NDJSON ledger: one JSON object per
// line, flushed per record so a crashed run still leaves every
// completed record on disk. Safe for concurrent use (experiment
// workloads append from par.ForEachCtx workers); the first write error is
// latched and returned by every subsequent call, mirroring
// obs.NDJSONSink.
type Writer struct {
	mu   sync.Mutex
	w    *bufio.Writer
	c    io.Closer
	seq  int64
	err  error
	path string
}

// Create opens (or creates) the ledger at path for appending. Existing
// records are preserved; Seq numbering continues from the count of
// lines already present.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	seq, err := countLines(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{w: bufio.NewWriter(f), c: f, seq: seq, path: path}, nil
}

// NewWriter wraps an in-memory writer (tests, qbeep-ledger fixtures).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// countLines counts newline-terminated records already in the file so
// Seq stays monotonic across process restarts.
func countLines(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var n int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

// Append stamps rec.Schema and rec.Seq and writes it as one NDJSON
// line, flushing to the underlying file.
func (l *Writer) Append(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	rec.Schema = SchemaVersion
	rec.Seq = l.seq
	line, err := json.Marshal(rec)
	if err != nil {
		l.err = err
		return err
	}
	if _, err := l.w.Write(line); err != nil {
		l.err = err
		return err
	}
	if err := l.w.WriteByte('\n'); err != nil {
		l.err = err
		return err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	l.seq++
	return nil
}

// Close flushes and closes the underlying file, returning any latched
// write error.
func (l *Writer) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ferr := l.w.Flush()
	if l.err == nil {
		l.err = ferr
	}
	if l.c != nil {
		cerr := l.c.Close()
		if l.err == nil {
			l.err = cerr
		}
		l.c = nil
	}
	return l.err
}

// maxLineBytes bounds one ledger line; spectra are short (≤ width+1
// floats) so 1 MiB is generous.
const maxLineBytes = 1 << 20

// Read decodes every record from r, in file order. Blank lines are
// skipped; a malformed line fails with its line number.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	var out []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("runledger: line %d: %w", lineNo, err)
		}
		if rec.Schema > SchemaVersion {
			return nil, fmt.Errorf("runledger: line %d: schema %d newer than supported %d", lineNo, rec.Schema, SchemaVersion)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFile reads an NDJSON ledger from disk.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// ErrEmpty reports a ledger (or a filtered view of one) with no
// records where at least one was required.
var ErrEmpty = errors.New("runledger: no records")
