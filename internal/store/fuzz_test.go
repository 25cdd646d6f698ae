package store

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// The byte surfaces a follower and a recovering process trust: shipped
// frames and snapshot files. Malformed input must come back as an error
// (or, for a segment, a torn tail) — never a panic, never an allocation
// sized by an unchecked length field. Seeds run under plain `go test`;
// CI runs each target briefly with -fuzz.

func FuzzParseFrames(f *testing.F) {
	one := frameRecord(nil, rec(0))
	two := frameRecord(append([]byte(nil), one...), Record{Type: 7, Payload: nil})
	huge := append([]byte(nil), one...)
	binary.LittleEndian.PutUint32(huge[0:4], 0xFFFFFFFF) // length field far past the input
	f.Add([]byte(nil))
	f.Add(one)
	f.Add(two)
	f.Add(one[:len(one)-1])
	f.Add(one[:recHeaderLen-1])
	f.Add(huge)
	f.Add(walMagic)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseFrames(data)
		if err != nil {
			return
		}
		// Accepted input is exactly the framing of the records returned.
		var again []byte
		for _, r := range recs {
			again = frameRecord(again, r)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d byte(s) that re-frame to %d", len(data), len(again))
		}
		// And a batch cut anywhere lands on a frame boundary or is refused.
		if n, ok := wholeFrames(data, len(data)/2+1); ok && len(data) > 0 {
			if _, err := ParseFrames(data[:n]); err != nil || n == 0 {
				t.Fatalf("wholeFrames cut at %d of %d: %v", n, len(data), err)
			}
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	good := encodeSnapshot([]byte("state"), time.Unix(100, 0))
	long := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(long[16:20], 0xFFFFFFFF)
	f.Add([]byte(nil))
	f.Add(good)
	f.Add(encodeSnapshot(nil, time.Time{}))
	f.Add(good[:snapHeaderLen-1])
	f.Add(good[:len(good)-1])
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, at, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if again := encodeSnapshot(payload, at); !bytes.Equal(again, data) {
			t.Fatalf("accepted a snapshot that re-encodes differently (%d vs %d bytes)", len(again), len(data))
		}
	})
}
