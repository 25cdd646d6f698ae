package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"
)

// Snapshot file format (docs/DURABILITY.md):
//
//	header   8 bytes  "SISNAP01"
//	         8 bytes  little-endian unix nanoseconds (write time)
//	         4 bytes  little-endian payload length
//	         4 bytes  CRC32C over the payload
//	payload  N bytes  component-defined full-state encoding
//
// Snapshots are written to a .tmp file, fsynced, atomically renamed to
// their final name and the directory fsynced — a crash at any point
// leaves either the previous generation or a complete new one, never a
// half-written snapshot that validates.

var snapMagic = []byte("SISNAP01")

const snapHeaderLen = 24

// encodeSnapshot frames a snapshot payload.
func encodeSnapshot(payload []byte, at time.Time) []byte {
	out := make([]byte, 0, snapHeaderLen+len(payload))
	out = append(out, snapMagic...)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(at.UnixNano()))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, crcTable))
	out = append(out, hdr[:]...)
	return append(out, payload...)
}

// decodeSnapshot validates a snapshot file and returns its payload and
// write time. Any framing or checksum problem is an error: the caller
// falls back to an older generation.
func decodeSnapshot(data []byte) (payload []byte, at time.Time, err error) {
	if len(data) < snapHeaderLen || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, time.Time{}, fmt.Errorf("store: snapshot header malformed")
	}
	ns := binary.LittleEndian.Uint64(data[8:16])
	length := binary.LittleEndian.Uint32(data[16:20])
	wantCRC := binary.LittleEndian.Uint32(data[20:24])
	if int(length) != len(data)-snapHeaderLen {
		return nil, time.Time{}, fmt.Errorf("store: snapshot length %d does not match file (%d payload bytes)", length, len(data)-snapHeaderLen)
	}
	payload = data[snapHeaderLen:]
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, time.Time{}, fmt.Errorf("store: snapshot checksum mismatch")
	}
	return payload, time.Unix(0, int64(ns)), nil
}

// writeAtomic durably replaces dir/name with data: temp file, fsync,
// atomic rename, directory fsync (two fsyncs). Snapshots and rewritten
// WAL segments both land this way, so a crash leaves either the old
// file or the complete new one.
func writeAtomic(fs FS, dir, name string, data []byte) error {
	tmp := dir + "/" + name + ".tmp"
	h, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	if _, err := h.Write(data); err != nil {
		h.Close()
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if err := h.Sync(); err != nil {
		h.Close()
		return fmt.Errorf("store: sync %s: %w", tmp, err)
	}
	if err := h.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, dir+"/"+name); err != nil {
		return fmt.Errorf("store: rename %s: %w", tmp, err)
	}
	return fs.SyncDir(dir)
}
