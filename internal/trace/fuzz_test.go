package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzCompactDecode feeds arbitrary bytes to the compact (v2) trace
// reader. The decoder must never panic and must fail cleanly on garbage;
// whatever prefix it does decode must survive a re-encode/re-decode
// round trip bit-exactly, since the compact format is the archival
// representation of workloads.
func FuzzCompactDecode(f *testing.F) {
	// Seed with real encodings: empty, a small stream, and adversarial
	// delta patterns (negative strides, max gaps).
	encode := func(recs []Record) []byte {
		var buf bytes.Buffer
		w := NewCompactWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(encode(nil))
	f.Add(encode([]Record{{Gap: 0, Addr: 64, Write: false}, {Gap: 3, Addr: 128, Write: true}}))
	f.Add(encode([]Record{{Gap: 0xFFFFFFFF, Addr: 1 << 62}, {Gap: 1, Addr: 0}}))
	f.Add([]byte("CAMPSTR2"))                     // header only
	f.Add([]byte("CAMPSTR1\x00\x00"))             // wrong magic
	f.Add(append([]byte("CAMPSTR2"), 0x80, 0x80)) // truncated uvarint
	var big [16]byte
	n := binary.PutUvarint(big[:], 1<<40) // gap overflowing uint32
	f.Add(append([]byte("CAMPSTR2"), big[:n]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewCompactReader(bytes.NewReader(data))
		var recs []Record
		for {
			rec, err := r.Next()
			if err != nil {
				if errors.Is(err, io.EOF) && len(data) < len("CAMPSTR2") {
					t.Fatalf("EOF reported for a stream with no valid header")
				}
				break
			}
			recs = append(recs, rec)
			if len(recs) > len(data) { // >= 3 bytes per record: cannot happen
				t.Fatalf("decoded %d records from %d bytes", len(recs), len(data))
			}
		}

		// Round trip the decoded prefix.
		var buf bytes.Buffer
		w := NewCompactWriter(&buf)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if w.Count() != uint64(len(recs)) {
			t.Fatalf("writer count %d, want %d", w.Count(), len(recs))
		}
		r2 := NewCompactReader(&buf)
		for i, want := range recs {
			got, err := r2.Next()
			if err != nil {
				t.Fatalf("round trip: record %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("round trip: record %d = %+v, want %+v", i, got, want)
			}
		}
		if _, err := r2.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("round trip: trailing record where EOF expected (err=%v)", err)
		}
	})
}
