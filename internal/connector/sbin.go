package connector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
)

// sbin is ShareInsights' compact binary row format — the offline
// stand-in for AVRO (see DESIGN.md substitutions). Layout:
//
//	magic   "SBIN\x01"
//	ncols   uvarint, then ncols length-prefixed column names
//	nrows   uvarint
//	rows    per cell: 1 kind byte, then payload
//	          null:   nothing
//	          bool:   1 byte
//	          int:    varint
//	          float:  8-byte little-endian IEEE bits
//	          string: uvarint length + bytes
//	          time:   varint unix nanoseconds
//
// Column binding is by name against the declared schema, so an sbin
// payload may carry columns in any order or extras the schema ignores.
type sbinFormat struct{}

const sbinMagic = "SBIN\x01"

// Decode binds the payload's columns to the declared schema by name
// (payload path first, then column name).
func (f *sbinFormat) Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error) {
	return decodeSBIN(payload, s, func(names []string) ([]int, error) {
		binding, missing := bindByName(s, names)
		if missing != "" {
			return nil, fmt.Errorf("sbin payload has no column %q (has %v)", missing, names)
		}
		return binding, nil
	})
}

// DecodeSBIN parses an sbin payload written from a table of schema s
// (EncodeSBIN's output): columns bind by position, whatever their names.
// The durable store uses it for the tables it journals.
func DecodeSBIN(payload []byte, s *schema.Schema) (*table.Table, error) {
	return decodeSBIN(payload, s, func(names []string) ([]int, error) {
		if len(names) != s.Len() {
			return nil, fmt.Errorf("sbin payload has %d columns, schema has %d", len(names), s.Len())
		}
		binding := make([]int, len(names))
		for i := range binding {
			binding[i] = i
		}
		return binding, nil
	})
}

// EncodeSBIN serializes a table in the sbin format.
func EncodeSBIN(t *table.Table) []byte {
	var buf bytes.Buffer
	buf.WriteString(sbinMagic)
	writeUvarint(&buf, uint64(t.Schema().Len()))
	for _, n := range t.Schema().Names() {
		writeUvarint(&buf, uint64(len(n)))
		buf.WriteString(n)
	}
	writeUvarint(&buf, uint64(t.Len()))
	for _, row := range t.Rows() {
		for _, v := range row {
			buf.WriteByte(byte(v.Kind()))
			switch v.Kind() {
			case value.Null:
			case value.Bool:
				if v.Bool() {
					buf.WriteByte(1)
				} else {
					buf.WriteByte(0)
				}
			case value.Int:
				writeVarint(&buf, v.Int())
			case value.Float:
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float()))
				buf.Write(b[:])
			case value.String:
				s := v.Str()
				writeUvarint(&buf, uint64(len(s)))
				buf.WriteString(s)
			case value.Time:
				writeVarint(&buf, v.Time().UnixNano())
			}
		}
	}
	return buf.Bytes()
}

// decodeSBIN parses an sbin payload straight into column vectors: each
// cell is read by its kind byte and appended to the builder columns of
// the schema columns bound to its payload column (bind maps schema
// column -> payload column). A string cell reaches the builder as a
// slice of the payload, so a value its column has already seen is never
// copied out. A payload that is malformed anywhere reports that before a
// binding failure.
func decodeSBIN(payload []byte, s *schema.Schema, bind func(names []string) ([]int, error)) (*table.Table, error) {
	r := bytes.NewReader(payload)
	magic := make([]byte, len(sbinMagic))
	if _, err := r.Read(magic); err != nil || string(magic) != sbinMagic {
		return nil, fmt.Errorf("sbin: bad magic")
	}
	ncols, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("sbin: %w", err)
	}
	if ncols > 1<<16 {
		return nil, fmt.Errorf("sbin: implausible column count %d", ncols)
	}
	names := make([]string, ncols)
	for i := range names {
		p, err := readBytes(r, payload)
		if err != nil {
			return nil, err
		}
		names[i] = string(p)
	}
	nrows, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("sbin: %w", err)
	}
	if ncols == 0 && nrows > 1<<16 {
		// No cell bytes to run out of: only the count bounds the loop.
		return nil, fmt.Errorf("sbin: implausible row count %d", nrows)
	}
	binding, bindErr := bind(names)
	// targets inverts the binding: the schema columns each payload
	// column fills (none for an extra column, several when schema
	// columns share a payload path). Empty throughout on a binding
	// failure, so the rest of the payload is still checked.
	targets := make([][]int, ncols)
	for i, j := range binding {
		targets[j] = append(targets[j], i)
	}
	// The vectors are reserved for nrows only as far as the payload can
	// hold them: a cell is at least its kind byte, so the bytes left bound
	// the rows whatever the header claims, and a forged count sizes
	// nothing beyond them. A short payload still ends the loop with an
	// error.
	bld := colstore.NewBuilder(s)
	if ncols > 0 {
		bld.Reserve(int(min(nrows, uint64(r.Len())/ncols)))
	}
	for ri := uint64(0); ri < nrows; ri++ {
		for _, cols := range targets {
			kind, err := r.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("sbin: truncated row %d: %w", ri, err)
			}
			var cell value.V
			switch value.Kind(kind) {
			case value.Null:
			case value.Bool:
				b, err := r.ReadByte()
				if err != nil {
					return nil, fmt.Errorf("sbin: %w", err)
				}
				cell = value.NewBool(b != 0)
			case value.Int:
				n, err := binary.ReadVarint(r)
				if err != nil {
					return nil, fmt.Errorf("sbin: %w", err)
				}
				cell = value.NewInt(n)
			case value.Float:
				var b [8]byte
				if _, err := readFull(r, b[:]); err != nil {
					return nil, fmt.Errorf("sbin: %w", err)
				}
				cell = value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
			case value.String:
				p, err := readBytes(r, payload)
				if err != nil {
					return nil, err
				}
				for _, c := range cols {
					bld.AppendString(c, p)
				}
				continue
			case value.Time:
				n, err := binary.ReadVarint(r)
				if err != nil {
					return nil, fmt.Errorf("sbin: %w", err)
				}
				cell = value.NewTime(time.Unix(0, n))
			default:
				return nil, fmt.Errorf("sbin: unknown kind byte %d", kind)
			}
			for _, c := range cols {
				bld.AppendCell(c, cell)
			}
		}
		bld.EndRow()
	}
	if bindErr != nil {
		return nil, bindErr
	}
	return bld.Table(), nil
}

// readBytes reads one length-prefixed string at r's position and
// returns it as a slice of payload, not a copy.
func readBytes(r *bytes.Reader, payload []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("sbin: %w", err)
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("sbin: string length %d exceeds remaining payload", n)
	}
	off := len(payload) - r.Len()
	if _, err := r.Seek(int64(n), io.SeekCurrent); err != nil {
		return nil, fmt.Errorf("sbin: %w", err)
	}
	return payload[off : off+int(n)], nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	buf.Write(b[:binary.PutUvarint(b[:], v)])
}

func writeVarint(buf *bytes.Buffer, v int64) {
	var b [binary.MaxVarintLen64]byte
	buf.Write(b[:binary.PutVarint(b[:], v)])
}

func readFull(r *bytes.Reader, b []byte) (int, error) {
	n, err := r.Read(b)
	if err == nil && n < len(b) {
		return n, fmt.Errorf("short read: %d of %d", n, len(b))
	}
	return n, err
}
