package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Log is an append-only JSONL file of R records, the durable half of
// both the campaign checkpoint (Store) and the serving daemon's job
// journal. Appends are fsync'd one record at a time, so the file is
// consistent after a crash or SIGKILL: at worst the final line is
// truncated, and OpenLog repairs that by truncating back to the last
// complete record. The log knows nothing about what its records mean;
// callers fold records into their own views as they are loaded and
// appended.
type Log[R any] struct {
	f *os.File
	// lines counts records physically in the file (superseded duplicates
	// included), so callers can decide when a Rewrite is worth it.
	lines int
}

// OpenLog opens (creating if needed) the log at path, passes every
// complete record to visit in file order, and positions the file for
// appending. valid rejects records that parse but are not well-formed
// (say, an empty key). A torn final line — the signature of a crash
// mid-append — is discarded and truncated away; a corrupt or invalid
// record elsewhere is an error naming the file and offset, since it
// means the file is not one of ours.
//
// When the call creates the file, the parent directory is fsync'd too:
// per-record Append fsyncs make the *contents* durable, but on
// journaling filesystems the directory entry itself is a separate piece
// of metadata — without the directory sync, a crash shortly after
// creation can lose the whole file even though every byte in it was
// synced.
func OpenLog[R any](path string, valid func(R) error, visit func(R)) (*Log[R], error) {
	_, statErr := os.Stat(path)
	creating := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if creating {
		syncDir(path)
	}
	l := &Log[R]{f: f}
	if err := l.load(valid, visit); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// syncDir fsyncs path's parent directory, making a just-created or
// just-renamed directory entry durable. Best-effort, like the rename
// sync in AtomicWriteFile: some filesystems reject directory fsync, and
// only durability — not consistency — is at stake.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

func (l *Log[R]) load(valid func(R) error, visit func(R)) error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return err
	}
	var end int // offset just past the last complete, valid record
	for end < len(data) {
		nl := bytes.IndexByte(data[end:], '\n')
		if nl < 0 {
			break // no trailing newline: a torn append, drop it
		}
		line := data[end : end+nl+1]
		var rec R
		jerr := json.Unmarshal(line, &rec)
		if jerr == nil {
			jerr = valid(rec)
		}
		if jerr != nil {
			if end+nl+1 == len(data) {
				break // the corrupt line is the file's last: torn append
			}
			return fmt.Errorf("%s: corrupt record at offset %d: %w", l.f.Name(), end, jerr)
		}
		end += nl + 1
		l.lines++
		visit(rec)
	}
	if err := l.f.Truncate(int64(end)); err != nil {
		return err
	}
	_, err = l.f.Seek(int64(end), io.SeekStart)
	return err
}

// Lines returns the number of records physically in the file.
func (l *Log[R]) Lines() int { return l.lines }

// Append durably writes one record: marshal, write, fsync. The record is
// visible to a subsequent OpenLog as soon as Append returns.
func (l *Log[R]) Append(rec R) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := l.f.Write(b); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.lines++
	return nil
}

// Rewrite replaces the whole file with recs, in order. The rewrite goes
// through AtomicWriteFile — temp file, fsync, rename, directory fsync —
// so a crash mid-rewrite leaves either the old file or the complete new
// one.
func (l *Log[R]) Rewrite(recs []R) error {
	var buf bytes.Buffer
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	path := l.f.Name()
	if err := AtomicWriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	// Swap the handle: the old descriptor still points at the unlinked
	// pre-rewrite inode, so appends through it would vanish.
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.lines = len(recs)
	return nil
}

// Close releases the underlying file.
func (l *Log[R]) Close() error { return l.f.Close() }
