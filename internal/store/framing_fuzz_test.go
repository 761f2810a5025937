package store

import (
	"bytes"
	"path/filepath"
	"testing"
)

// FuzzFrameRoundTrip: every payload — binary, empty, newline-free or not —
// must survive encodeFrame/decodeFrame exactly.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(`{"put":{"id":"job-000001","status":"queued"}}`))
	f.Add([]byte(""))
	f.Add([]byte("=00000000 0 "))
	f.Add([]byte{0, 1, 2, 0xff, 0xfe})
	f.Fuzz(func(t *testing.T, payload []byte) {
		line := encodeFrame(payload)
		if line[len(line)-1] != '\n' {
			t.Fatal("encoded frame does not end in newline")
		}
		got, ok := decodeFrame(line[:len(line)-1])
		if !ok {
			t.Fatalf("round-trip of %q failed to decode", payload)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round-trip of %q returned %q", payload, got)
		}
	})
}

// FuzzFrameDecodeCorrupt: decodeFrame must never panic on arbitrary
// bytes, and anything it does accept must be self-consistent — the
// accepted payload re-encodes to a line that decodes back to it.
func FuzzFrameDecodeCorrupt(f *testing.F) {
	f.Add([]byte("=deadbeef 5 hello"))
	f.Add([]byte("=zzzzzzzz 5 hello"))
	f.Add([]byte("=00000000 99 short"))
	f.Add([]byte("="))
	f.Add([]byte(`{"put":{"id":"job-000001"}}`)) // v1 unframed line
	f.Add(encodeFrame([]byte("valid"))[:8])      // torn mid-header
	f.Fuzz(func(t *testing.T, line []byte) {
		payload, ok := decodeFrame(line)
		if !ok {
			return
		}
		re := encodeFrame(payload)
		got, ok2 := decodeFrame(re[:len(re)-1])
		if !ok2 || !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload %q does not round-trip", payload)
		}
	})
}

// FuzzWALTornTail: a WAL holding two complete entries plus any strict
// prefix of a further framed line — the shape a crash mid-append leaves —
// must open cleanly with exactly the two complete entries, the torn tail
// dropped, through Open and through OpenShared alike. Payloads are
// scrubbed of newlines first: a framed payload never contains one (WAL
// payloads are JSON), and an embedded newline would turn the single torn
// line into interior damage, which Open rightly refuses.
func FuzzWALTornTail(f *testing.F) {
	f.Add([]byte(`{"put":{"id":"job-000003","status":"queued"}}`), uint16(10))
	f.Add([]byte(""), uint16(0))
	f.Add([]byte{0xff, 0x00, 0x41}, uint16(3))
	f.Fuzz(func(t *testing.T, payload []byte, cut uint16) {
		payload = bytes.ReplaceAll(payload, []byte("\n"), []byte(" "))
		frame := encodeFrame(payload)
		k := int(cut) % len(frame) // strict prefix, possibly empty

		for _, mode := range walModes {
			dir := t.TempDir()
			s, err := mode.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(rec(1, "running")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(rec(2, "queued")); err != nil {
				t.Fatal(err)
			}
			// Crash: no Close (Close would compact the WAL away); tear a
			// partial frame onto the tail instead.
			appendToFile(t, filepath.Join(dir, mode.wal), frame[:k])

			re, err := mode.open(dir)
			if err != nil {
				t.Fatalf("%s: open with torn tail (%d of %d frame bytes): %v", mode.name, k, len(frame), err)
			}
			for n := 1; n <= 2; n++ {
				if _, ok, err := re.Get(rec(n, "").ID); err != nil || !ok {
					t.Fatalf("%s: complete entry %d lost after torn-tail recovery (ok %v, err %v)", mode.name, n, ok, err)
				}
			}
			if got, err := re.Len(); err != nil || got != 2 {
				t.Fatalf("%s: recovered %d records (err %v), want 2", mode.name, got, err)
			}
			re.Close()
			s.Close()
		}
	})
}
