package connector

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"math"
	"strings"
	"time"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// The decoders as they were before they wrote column vectors: read every
// record, build a []value.V row per record, append it to a row table.
// They are the oracle the one-pass decoders are fuzzed against (same
// table, or the same error), and nothing else calls them.

// referenceDecodeCSV is csvFormat.decode over encoding/csv.ReadAll.
func referenceDecodeCSV(sep rune, d *flowfile.DataDef, s *schema.Schema, payload []byte, pd Pushdown) (*table.Table, PushdownResult, error) {
	r := csv.NewReader(bytes.NewReader(payload))
	r.Comma = sep
	if r.Comma == 0 {
		r.Comma = ','
		if sep := d.Prop("separator"); sep != "" {
			rs := []rune(sep)
			r.Comma = rs[0]
		}
	}
	r.FieldsPerRecord = -1
	r.TrimLeadingSpace = true
	var res PushdownResult
	records, err := r.ReadAll()
	if err != nil {
		return nil, res, err
	}
	t := table.New(s)
	pred, needCols := compilePushdownPredicate(pd.Predicate, s)
	need := map[string]bool{}
	for _, c := range needCols {
		need[c] = true
	}
	res.PredicateApplied = pred != nil
	skip := map[int]bool{}
	for _, c := range pd.SkipColumns {
		if need[c] {
			continue
		}
		if i := s.Index(c); i >= 0 {
			skip[i] = true
			res.SkippedColumns = append(res.SkippedColumns, c)
		}
	}
	if len(records) == 0 {
		return t, res, nil
	}
	binding := make([]int, s.Len())
	for i := range binding {
		binding[i] = i
	}
	start := 0
	if referenceIsHeader(records[0], s) {
		start = 1
		pos := map[string]int{}
		for i, field := range records[0] {
			pos[strings.TrimSpace(field)] = i
		}
		for i, col := range s.Columns() {
			if j, ok := pos[col.Source()]; ok {
				binding[i] = j
			} else if j, ok := pos[col.Name]; ok {
				binding[i] = j
			} else {
				return nil, res, fmt.Errorf("header has no column for %q", col.Source())
			}
		}
	}
	for _, rec := range records[start:] {
		row := make(table.Row, s.Len())
		for i, j := range binding {
			if skip[i] {
				row[i] = value.VNull
			} else if j < len(rec) {
				row[i] = value.Parse(rec[j])
			} else {
				row[i] = value.VNull
			}
		}
		if pred != nil && !pred(row).Truthy() {
			continue
		}
		t.Append(row)
	}
	return t, res, nil
}

func referenceIsHeader(rec []string, s *schema.Schema) bool {
	names := map[string]bool{}
	for _, c := range s.Columns() {
		names[c.Name] = true
		names[c.Source()] = true
	}
	matched := 0
	for _, field := range rec {
		if names[strings.TrimSpace(field)] {
			matched++
		}
	}
	return matched >= s.Len() || (matched > 0 && matched == len(rec))
}

// referenceDecodeSBIN is sbinFormat.Decode over the row-building parser.
func referenceDecodeSBIN(s *schema.Schema, payload []byte) (*table.Table, error) {
	names, rows, err := referenceParseSBIN(payload)
	if err != nil {
		return nil, err
	}
	binding := make([]int, s.Len())
	pos := map[string]int{}
	for i, n := range names {
		pos[n] = i
	}
	for i, col := range s.Columns() {
		j, ok := pos[col.Source()]
		if !ok {
			j, ok = pos[col.Name]
		}
		if !ok {
			return nil, fmt.Errorf("sbin payload has no column %q (has %v)", col.Source(), names)
		}
		binding[i] = j
	}
	t := table.New(s)
	for _, rec := range rows {
		row := make(table.Row, s.Len())
		for i, j := range binding {
			row[i] = rec[j]
		}
		t.Append(row)
	}
	return t, nil
}

// referenceParseSBIN is the old DecodeSBIN with the three defects a
// forged or unlucky payload hit repaired, so that it can serve as an
// oracle at all: a column-name length is checked against the payload
// like a cell's (it sized an allocation unchecked), the row count does
// not pre-size the row slice (likewise), and a zero-length string that
// ends the payload reads as "" (bytes.Reader.Read reports io.EOF for an
// empty read at the end, which failed every table whose last cell is an
// empty string).
func referenceParseSBIN(payload []byte) ([]string, []table.Row, error) {
	r := bytes.NewReader(payload)
	magic := make([]byte, len(sbinMagic))
	if _, err := r.Read(magic); err != nil || string(magic) != sbinMagic {
		return nil, nil, fmt.Errorf("sbin: bad magic")
	}
	ncols, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, nil, fmt.Errorf("sbin: %w", err)
	}
	if ncols > 1<<16 {
		return nil, nil, fmt.Errorf("sbin: implausible column count %d", ncols)
	}
	readStr := func() (string, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return "", fmt.Errorf("sbin: %w", err)
		}
		if n > uint64(r.Len()) {
			return "", fmt.Errorf("sbin: string length %d exceeds remaining payload", n)
		}
		b := make([]byte, n)
		if n > 0 {
			if _, err := readFull(r, b); err != nil {
				return "", fmt.Errorf("sbin: %w", err)
			}
		}
		return string(b), nil
	}
	names := make([]string, ncols)
	for i := range names {
		if names[i], err = readStr(); err != nil {
			return nil, nil, err
		}
	}
	nrows, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, nil, fmt.Errorf("sbin: %w", err)
	}
	if ncols == 0 && nrows > 1<<16 {
		return nil, nil, fmt.Errorf("sbin: implausible row count %d", nrows)
	}
	var rows []table.Row
	for ri := uint64(0); ri < nrows; ri++ {
		row := make(table.Row, ncols)
		for ci := range row {
			kind, err := r.ReadByte()
			if err != nil {
				return nil, nil, fmt.Errorf("sbin: truncated row %d: %w", ri, err)
			}
			switch value.Kind(kind) {
			case value.Null:
				row[ci] = value.VNull
			case value.Bool:
				b, err := r.ReadByte()
				if err != nil {
					return nil, nil, fmt.Errorf("sbin: %w", err)
				}
				row[ci] = value.NewBool(b != 0)
			case value.Int:
				n, err := binary.ReadVarint(r)
				if err != nil {
					return nil, nil, fmt.Errorf("sbin: %w", err)
				}
				row[ci] = value.NewInt(n)
			case value.Float:
				var b [8]byte
				if _, err := readFull(r, b[:]); err != nil {
					return nil, nil, fmt.Errorf("sbin: %w", err)
				}
				row[ci] = value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
			case value.String:
				str, err := readStr()
				if err != nil {
					return nil, nil, err
				}
				row[ci] = value.NewString(str)
			case value.Time:
				n, err := binary.ReadVarint(r)
				if err != nil {
					return nil, nil, fmt.Errorf("sbin: %w", err)
				}
				row[ci] = value.NewTime(time.Unix(0, n))
			default:
				return nil, nil, fmt.Errorf("sbin: unknown kind byte %d", kind)
			}
		}
		rows = append(rows, row)
	}
	return names, rows, nil
}
