package store

import (
	"encoding/binary"
	"hash/crc32"
)

// WAL segment format (docs/DURABILITY.md):
//
//	header   8 bytes  "SIWAL001"
//	record   4 bytes  little-endian payload length
//	         4 bytes  CRC32C (Castagnoli) over type byte + payload
//	         1 byte   record type (component-defined)
//	         N bytes  payload
//
// Records are acknowledged only after the segment file is fsynced. On
// replay, any malformed tail — a partial header, a length running past
// the end of the file, or a CRC mismatch — is treated as a torn write
// from a crash mid-append: replay stops there and the tail is dropped.

var walMagic = []byte("SIWAL001")

const (
	recHeaderLen  = 9       // length (4) + crc (4) + type (1)
	maxRecordSize = 1 << 30 // sanity bound against corrupt length fields
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one journaled entry: a component-defined type tag plus an
// opaque payload.
type Record struct {
	Type    byte
	Payload []byte
}

// frameRecord appends the framed record to buf and returns it.
func frameRecord(buf []byte, rec Record) []byte {
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec.Payload)))
	crc := crc32.Update(0, crcTable, []byte{rec.Type})
	crc = crc32.Update(crc, crcTable, rec.Payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	hdr[8] = rec.Type
	buf = append(buf, hdr[:]...)
	return append(buf, rec.Payload...)
}

// parseWAL replays a segment's records. It returns the records up to
// the first malformed frame, the number of valid bytes (header
// included), and how many torn trailing bytes were dropped. A segment
// whose 8-byte header itself is torn or wrong yields zero records and
// the whole file as torn bytes.
func parseWAL(data []byte) (recs []Record, validBytes, tornBytes int, err error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
		return nil, 0, len(data), nil
	}
	off := len(walMagic)
	for off < len(data) {
		rest := data[off:]
		if len(rest) < recHeaderLen {
			return recs, off, len(data) - off, nil
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		if length > maxRecordSize {
			return recs, off, len(data) - off, nil
		}
		end := recHeaderLen + int(length)
		if len(rest) < end {
			return recs, off, len(data) - off, nil
		}
		wantCRC := binary.LittleEndian.Uint32(rest[4:8])
		crc := crc32.Update(0, crcTable, rest[8:9])
		crc = crc32.Update(crc, crcTable, rest[recHeaderLen:end])
		if crc != wantCRC {
			return recs, off, len(data) - off, nil
		}
		recs = append(recs, Record{Type: rest[8], Payload: append([]byte(nil), rest[recHeaderLen:end]...)})
		off += end
	}
	return recs, off, 0, nil
}
