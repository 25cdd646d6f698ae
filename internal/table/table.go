// Package table implements the data object: the relation that flows
// between tasks in a ShareInsights pipeline.
//
// The paper makes no distinction between data sources and data sinks
// ("the system internally makes no differentiation between a data source
// and a data sink", §3.4) — both are simply tables with a schema, and a
// sink of one flow can be the source of another.
//
// A table is immutable once built. Most are column-backed: the decoders
// and the vectorized kernels produce vectors (colstore), and rows are
// only an adapter built on request. A user task's output and the cube's
// are row-backed, filled by Append before anyone else sees them.
package table

import (
	"fmt"
	"strconv"

	"shareinsights/internal/schema"
	"shareinsights/internal/value"
)

// Row is one tuple of a table. Cells align with the table's schema.
type Row []value.V

// Clone returns an independent copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is an in-memory relation: a schema plus its cells. The cells
// live in one of two layouts. A row-backed table (New, FromRows) stores
// rows: a user task's output and the cube's. A column-backed table
// (FromColumns) stores column vectors — what the format decoders and the
// vectorized kernels produce. Len, At, Cell, Select, SizeBytes and
// Fingerprint answer from the vectors, so the encoders, the cube and the
// widgets never build a row; its Rows and Row build a fresh copy of
// what they return on every call and keep nothing.
//
// A table is immutable once built, and so safe for any number of
// concurrent readers in either layout. The one mutation, Append, is for
// the builder of a row-backed table while it fills it.
type Table struct {
	schema *schema.Schema
	rows   []Row
	cols   Columns // the storage of a column-backed table; nil when row-backed
}

// Columns is the column-major storage behind a column-backed table. It
// is declared here, not where it is implemented (colstore.Batch),
// because colstore imports this package. Implementations are immutable:
// a table never writes through them, and shares them with every table
// Select makes from it.
type Columns interface {
	// Len is the number of rows.
	Len() int
	// At returns the cell of row i in column c.
	At(i, c int) value.V
	// Row copies the cells of row i into dst, which has one element per
	// schema column.
	Row(i int, dst []value.V)
	// Select returns the rows at idx, in order, sharing the vectors.
	Select(idx []int32) Columns
}

// New returns an empty table with the given schema.
func New(s *schema.Schema) *Table {
	return &Table{schema: s}
}

// FromRows builds a table from pre-built rows. Each row must have exactly
// one cell per schema column.
func FromRows(s *schema.Schema, rows []Row) (*Table, error) {
	for i, r := range rows {
		if len(r) != s.Len() {
			return nil, fmt.Errorf("table: row %d has %d cells, schema has %d columns", i, len(r), s.Len())
		}
	}
	return &Table{schema: s, rows: rows}, nil
}

// FromColumns returns a column-backed table over cols, which must hold
// one column per schema column. Nothing is copied.
func FromColumns(s *schema.Schema, cols Columns) *Table {
	return &Table{schema: s, cols: cols}
}

// Columns returns the column storage of a column-backed table, nil for
// a row-backed one.
func (t *Table) Columns() Columns { return t.cols }

// Schema returns the table's schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	if t.cols != nil {
		return t.cols.Len()
	}
	return len(t.rows)
}

// Rows returns the rows. A column-backed table builds them afresh on
// every call (one flat cell allocation plus the row headers) and keeps
// none, so callers that read rows more than once hold on to the slice.
// A row-backed table returns its own storage, which callers must treat
// as read-only.
func (t *Table) Rows() []Row {
	if t.cols == nil {
		return t.rows
	}
	w := t.schema.Len()
	cells := make([]value.V, t.cols.Len()*w)
	rows := make([]Row, t.cols.Len())
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
		t.cols.Row(i, rows[i])
	}
	return rows
}

// Row returns the i'th row: for a column-backed table a fresh copy of
// its cells.
func (t *Table) Row(i int) Row {
	if t.cols == nil {
		return t.rows[i]
	}
	r := make(Row, t.schema.Len())
	t.cols.Row(i, r)
	return r
}

// At returns the cell at row i, column c; a column-backed table answers
// from its vectors, building no row.
func (t *Table) At(i, c int) value.V {
	if t.cols != nil {
		return t.cols.At(i, c)
	}
	return t.rows[i][c]
}

// Select returns t's rows at idx, in order, sharing t's storage: its row
// headers, or its vectors read through idx.
func (t *Table) Select(idx []int32) *Table {
	if t.cols != nil {
		return &Table{schema: t.schema, cols: t.cols.Select(idx)}
	}
	rows := make([]Row, len(idx))
	for o, i := range idx {
		rows[o] = t.rows[i]
	}
	return &Table{schema: t.schema, rows: rows}
}

// Append adds a row to a table New or FromRows made. It panics if the
// arity is wrong — appends are always produced by operators that already
// know the schema — or if the table is column-backed, whose vectors are
// shared and never written.
func (t *Table) Append(r Row) {
	if len(r) != t.schema.Len() {
		panic(fmt.Sprintf("table: append arity %d != schema %d", len(r), t.schema.Len()))
	}
	if t.cols != nil {
		panic("table: append to a column-backed table")
	}
	t.rows = append(t.rows, r)
}

// AppendValues adds a row built from the given cells.
func (t *Table) AppendValues(cells ...value.V) { t.Append(Row(cells)) }

// Cell returns the value at (row, named column); the null value if the
// column does not exist.
func (t *Table) Cell(row int, col string) value.V {
	i := t.schema.Index(col)
	if i < 0 {
		return value.VNull
	}
	return t.At(row, i)
}

// SortKey describes one sort criterion: the sort and top-n kernels'
// keys (colstore).
type SortKey struct {
	Column string
	Desc   bool
}

// SizeBytes estimates the in-memory footprint of the table. The DAG
// optimizer and the E6 transfer-ablation bench use it to cost shipping a
// data object to the client-side cube.
func (t *Table) SizeBytes() int {
	n := 0
	t.eachRow(func(r Row) {
		for _, v := range r {
			n += v.Size()
		}
	})
	return n
}

// eachRow calls fn with every row in order without building a
// column-backed table's rows: they pass through one scratch row, which
// fn must not retain.
func (t *Table) eachRow(fn func(Row)) {
	if t.cols == nil {
		for _, r := range t.rows {
			fn(r)
		}
		return
	}
	scratch := make(Row, t.schema.Len())
	for i, n := 0, t.cols.Len(); i < n; i++ {
		t.cols.Row(i, scratch)
		fn(scratch)
	}
}

// Format renders the table as an aligned text grid — the representation
// the data explorer uses ("runs the dashboard in a headless mode and
// displays the data in a tabular format", §4.4). At most maxRows rows are
// shown; maxRows <= 0 means all. It reads only the rows it shows, cell by
// cell, so it builds no row of a column-backed table.
func (t *Table) Format(maxRows int) string {
	cols, shown := t.schema.Columns(), t.Len()
	if maxRows > 0 && shown > maxRows {
		shown = maxRows
	}
	widths := make([]int, len(cols))
	var b []byte
	for c, col := range cols {
		widths[c] = len(col.Name)
		for i := 0; i < shown; i++ {
			b = t.At(i, c).AppendTo(b[:0])
			widths[c] = max(widths[c], len(b))
		}
	}
	b = b[:0]
	// Row -2 is the header, row -1 its underline. Every field but a row's
	// last is padded to its column's width plus the two-space gap.
	for i := -2; i < shown; i++ {
		for c, col := range cols {
			start := len(b)
			switch {
			case i == -2:
				b = append(b, col.Name...)
			case i == -1:
				for len(b)-start < widths[c] {
					b = append(b, '-')
				}
			default:
				b = t.At(i, c).AppendTo(b)
			}
			for c < len(cols)-1 && len(b)-start < widths[c]+2 {
				b = append(b, ' ')
			}
		}
		b = append(b, '\n')
	}
	if more := t.Len() - shown; more > 0 {
		b = append(strconv.AppendInt(append(b, "... ("...), int64(more), 10), " more rows)\n"...)
	}
	return string(b)
}

// Fingerprint returns a stable content hash of the table (schema plus
// every cell, order-sensitive). The incremental-execution cache keys a
// shared source by it. The schema's text (Schema.String) is hashed piece
// by piece.
func (t *Table) Fingerprint() string {
	h := value.HashSeed
	t.schema.Pieces(func(p string) { h = value.HashString(h, p) })
	t.eachRow(func(r Row) { h = value.HashRow(h, r) })
	return strconv.FormatUint(h, 16)
}

// Equal reports whether two tables have equal schemas and identical rows
// in the same order. Integration tests use it for golden comparisons.
func (t *Table) Equal(o *Table) bool {
	if !t.schema.Equal(o.schema) || t.Len() != o.Len() {
		return false
	}
	a, b := t.Rows(), o.Rows()
	for i := range a {
		for j := range a[i] {
			if !value.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}
