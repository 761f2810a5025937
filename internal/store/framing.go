package store

// WAL line framing. Every entry appended to a write-ahead log is one
// framed line:
//
//	=CCCCCCCC LEN PAYLOAD\n
//
// where CCCCCCCC is the fixed-width hex CRC-32C (Castagnoli) of PAYLOAD
// and LEN is PAYLOAD's decimal byte length. The frame gives crash
// recovery exact entry boundaries and an integrity check that is
// independent of the payload bytes: pre-framing (v1) recovery had to
// scan damaged regions for the raw `"put":`/`"del":` record keys to
// decide whether damage was a tolerable torn event tail or a lost
// record, which in turn forbade those byte sequences inside event
// payloads (the old ErrEventData constraint). With framing, a damaged
// region is classified by decoding the intact frames around it, and
// event payloads are fully opaque.
//
// Migration: v1 logs contain bare JSON lines (first byte '{', never
// '='). Replay accepts both — unframed lines parse as plain entries, so
// a store written by a pre-framing build opens cleanly; every new
// append is framed, and the first compaction rewrites the log all-framed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
)

// frameMark is the first byte of every framed WAL line. JSON entries
// begin with '{', so the mark also distinguishes framed lines from v1
// unframed ones.
const frameMark = '='

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame wraps one WAL entry payload in a framed line, trailing
// newline included.
func encodeFrame(payload []byte) []byte {
	buf := make([]byte, 0, len(payload)+16)
	buf = fmt.Appendf(buf, "%c%08x %d ", frameMark, crc32.Checksum(payload, crcTable), len(payload))
	buf = append(buf, payload...)
	return append(buf, '\n')
}

// decodeFrame parses a framed WAL line (without its trailing newline)
// and returns the payload. ok is false when the line is not a frame or
// fails its length or CRC check — the caller cannot distinguish "never
// was a frame" from "was one, now damaged" beyond the frameMark byte.
func decodeFrame(line []byte) (payload []byte, ok bool) {
	if len(line) < 11 || line[0] != frameMark || line[9] != ' ' {
		return nil, false
	}
	crc, err := strconv.ParseUint(string(line[1:9]), 16, 32)
	if err != nil {
		return nil, false
	}
	rest := line[10:]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return nil, false
	}
	n, err := strconv.Atoi(string(rest[:sp]))
	if err != nil || n != len(rest)-sp-1 {
		return nil, false
	}
	payload = rest[sp+1:]
	if crc32.Checksum(payload, crcTable) != uint32(crc) {
		return nil, false
	}
	return payload, true
}

// shortFrame reports whether line is a strict prefix of a frame, as a
// write cut short by a crash or a full disk leaves it. Shared logs of
// builds before the one WAL engine hold such lines mid-log: their shared
// store newline-terminated a crashed writer's partial line and appended
// after it, where this engine trims it. The payload must be incomplete
// JSON, as a strict prefix of an entry is; a whole payload under a
// length that claims more is damage, not a short write.
func shortFrame(line []byte) bool {
	head, ok := bytes.CutPrefix(line, []byte{frameMark})
	if !ok {
		return false
	}
	// The header as encodeFrame writes it: eight lowercase hex digits, a
	// space, the decimal payload length and a space.
	crc, rest, crcWhole := bytes.Cut(head, []byte(" "))
	if len(crc) > 8 || crcWhole && len(crc) < 8 || len(bytes.Trim(crc, "0123456789abcdef")) > 0 {
		return false
	}
	length, payload, headWhole := bytes.Cut(rest, []byte(" "))
	if len(bytes.Trim(length, "0123456789")) > 0 {
		return false
	}
	if !headWhole {
		return true // cut inside the header
	}
	n, err := strconv.Atoi(string(length))
	return err == nil && len(payload) < n && !json.Valid(payload)
}
