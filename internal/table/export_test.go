package table

// Materialized reports whether t holds a row view (a column-backed
// table has none until something asks it for rows).
func Materialized(t *Table) bool { return t.rows != nil }
