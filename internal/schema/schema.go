// Package schema models the column structure of ShareInsights data
// objects.
//
// The paper's Data (D) section requires users to "explicitly call out the
// schema of the payload" (Figure 5) either as a plain column list or as
// `path => column` mappings that pull fields out of hierarchical payloads
// (Figure 6, Figure 18). Schema captures both forms.
package schema

import (
	"fmt"
	"strings"
)

// Column describes one column of a data object.
type Column struct {
	// Name is the column name used throughout the flow file.
	Name string
	// Path is the optional payload path (a dotted JSON/XML path such as
	// "user.location") the column is extracted from. Empty means the
	// column is taken from the payload by name (flat formats like CSV).
	Path string
}

// Source returns the payload field the column is read from: Path when
// present, otherwise Name.
func (c Column) Source() string {
	if c.Path != "" {
		return c.Path
	}
	return c.Name
}

// String renders the column in flow-file form.
func (c Column) String() string {
	if c.Path != "" {
		return c.Path + " => " + c.Name
	}
	return c.Name
}

// Schema is an ordered set of columns with O(1) name lookup.
type Schema struct {
	cols  []Column
	index map[string]int
}

// New builds a schema from the given columns. Duplicate names are an
// error because tasks address columns by name.
func New(cols ...Column) (*Schema, error) {
	s := &Schema{cols: make([]Column, 0, len(cols)), index: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := s.add(c); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNew is New for statically known-good column lists; it panics on a
// duplicate name.
func MustNew(cols ...Column) *Schema {
	s, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// FromNames builds a schema of plain (path-less) columns.
func FromNames(names ...string) (*Schema, error) {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n}
	}
	return New(cols...)
}

// MustFromNames is FromNames panicking on duplicates.
func MustFromNames(names ...string) *Schema {
	s, err := FromNames(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColumnError is a schema rejecting a column name: missing from Have, or
// (Duplicate) already present. errors.As on it classifies a bind failure.
type ColumnError struct {
	Column    string
	Have      []string
	Duplicate bool
	msg       string
}

func (e *ColumnError) Error() string { return e.msg }

func (s *Schema) add(c Column) error {
	if c.Name == "" {
		return fmt.Errorf("schema: empty column name")
	}
	if _, dup := s.index[c.Name]; dup {
		return &ColumnError{Column: c.Name, Duplicate: true, msg: fmt.Sprintf("schema: duplicate column %q", c.Name)}
	}
	s.index[c.Name] = len(s.cols)
	s.cols = append(s.cols, c)
	return nil
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Columns returns the columns in order. The slice must not be modified.
func (s *Schema) Columns() []Column { return s.cols }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.cols))
	for i, c := range s.cols {
		names[i] = c.Name
	}
	return names
}

// Col returns the i'th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Index returns the position of the named column, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the named column exists.
func (s *Schema) Has(name string) bool { _, ok := s.index[name]; return ok }

// Require resolves each name to its index, failing with a descriptive
// error naming the missing column — the contextual binding check the
// paper describes for tasks ("the task configuration assumes that it will
// be used in a context where the data source has a rating column").
func (s *Schema) Require(names ...string) ([]int, error) {
	idx := make([]int, len(names))
	for i, n := range names {
		j := s.Index(n)
		if j < 0 {
			return nil, &ColumnError{Column: n, Have: s.Names(), msg: fmt.Sprintf("schema: column %q not found (have %s)", n, strings.Join(s.Names(), ", "))}
		}
		idx[i] = j
	}
	return idx, nil
}

// Project returns a new schema containing the named columns in the given
// order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, len(names))
	for i, n := range names {
		j := s.Index(n)
		if j < 0 {
			return nil, &ColumnError{Column: n, Have: s.Names(), msg: fmt.Sprintf("schema: column %q not found", n)}
		}
		cols[i] = s.cols[j]
	}
	return New(cols...)
}

// Extend returns a new schema with extra plain columns appended. Adding a
// column that already exists is an error.
func (s *Schema) Extend(names ...string) (*Schema, error) {
	cols := make([]Column, len(s.cols), len(s.cols)+len(names))
	copy(cols, s.cols)
	for _, n := range names {
		cols = append(cols, Column{Name: n})
	}
	return New(cols...)
}

// ExtendOrSame is Extend that tolerates existing columns: names already
// present are kept in place, only new names are appended. Map tasks use
// it because their output column may overwrite an input column.
func (s *Schema) ExtendOrSame(names ...string) *Schema {
	out := &Schema{index: make(map[string]int, len(s.cols)+len(names))}
	for _, c := range s.cols {
		_ = out.add(c)
	}
	for _, n := range names {
		if !out.Has(n) {
			_ = out.add(Column{Name: n})
		}
	}
	return out
}

// Equal reports whether the two schemas have the same column names in the
// same order (paths are presentation detail and do not affect equality).
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.cols {
		if s.cols[i].Name != o.cols[i].Name {
			return false
		}
	}
	return true
}

// String renders the schema in flow-file form: [a, b, path => c].
func (s *Schema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		parts[i] = c.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Clone returns an independent copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.cols))
	copy(cols, s.cols)
	return MustNew(cols...)
}
