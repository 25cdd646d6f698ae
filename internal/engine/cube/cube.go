// Package cube is ShareInsights' interactive execution context — the
// stand-in for the JavaScript data cube the paper generates for ad-hoc
// widget interaction ("the AST eventually gets converted into … a data
// cube (in JavaScript) — for ad-hoc widget interaction (group, filter
// etc)", §4.1).
//
// A Cube indexes one endpoint data object. Widgets register dimensions
// (the columns their interaction filters touch) and groups (their
// aggregations). Changing a dimension's filter updates every group
// incrementally, crossfilter-style: each group observes all filters
// *except* the one on its own dimension, and additions/removals are
// applied as deltas rather than recomputed — which is what makes
// dashboard interaction latency independent of how many widgets listen.
package cube

import (
	"fmt"
	"sort"

	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// maxDimensions bounds the per-cube dimension count; the filter state of
// a row is a uint64 bitmask with one bit per dimension.
const maxDimensions = 64

// Cube indexes a table for interactive filtering and grouping.
type Cube struct {
	base *table.Table
	// failMask[i] has bit d set when row i fails dimension d's filter.
	failMask []uint64
	dims     map[string]*Dimension
	dimOrder []*Dimension
	groups   []*Group

	// tracer/traceParent receive spans for filter updates and
	// materializations; nil tracer disables tracing.
	tracer      obs.Tracer
	traceParent int
}

// SetTracer attaches execution tracing: filter updates and
// materializations open spans under parent on tr. nil disables.
func (c *Cube) SetTracer(tr obs.Tracer, parent int) {
	c.tracer = tr
	c.traceParent = parent
}

// New builds a cube over a materialized endpoint data object.
func New(t *table.Table) *Cube {
	return &Cube{
		base:     t,
		failMask: make([]uint64, t.Len()),
		dims:     map[string]*Dimension{},
	}
}

// Base returns the underlying table.
func (c *Cube) Base() *table.Table { return c.base }

// Dimension returns (creating on first use) the dimension over a column.
func (c *Cube) Dimension(col string) (*Dimension, error) {
	if d, ok := c.dims[col]; ok {
		return d, nil
	}
	idx := c.base.Schema().Index(col)
	if idx < 0 {
		return nil, fmt.Errorf("cube: column %q not in %s", col, c.base.Schema())
	}
	if len(c.dimOrder) >= maxDimensions {
		return nil, fmt.Errorf("cube: dimension limit (%d) reached", maxDimensions)
	}
	d := &Dimension{cube: c, col: col, colIdx: idx, bit: uint64(1) << uint(len(c.dimOrder))}
	c.dims[col] = d
	c.dimOrder = append(c.dimOrder, d)
	return d, nil
}

// Dimension is one filterable column.
type Dimension struct {
	cube   *Cube
	col    string
	colIdx int
	bit    uint64
	// active marks whether a filter is currently applied.
	active bool
}

// Column returns the dimension's column name.
func (d *Dimension) Column() string { return d.col }

// Filter keeps rows whose column value (display form) is in vals.
func (d *Dimension) Filter(vals ...string) {
	set := make(map[string]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	d.apply(func(v value.V) bool { return set[v.String()] })
}

// FilterRange keeps rows with lo <= value <= hi.
func (d *Dimension) FilterRange(lo, hi value.V) {
	d.apply(func(v value.V) bool {
		if lo.Kind() == value.Time && v.Kind() == value.String {
			v = value.Parse(v.Str())
		}
		return value.Compare(v, lo) >= 0 && value.Compare(v, hi) <= 0
	})
}

// ClearFilter removes the dimension's filter.
func (d *Dimension) ClearFilter() {
	if !d.active {
		return
	}
	d.active = false
	d.apply(nil)
}

// apply installs a new predicate (nil = pass all) and propagates row
// state deltas to every group.
func (d *Dimension) apply(pred func(value.V) bool) {
	// Annotate a panic with the dimension before it unwinds so the
	// recovery layer above can pin-point which cube filter blew up.
	defer func() {
		if v := recover(); v != nil {
			panic(fmt.Sprintf("cube filter %s: %v", d.col, v))
		}
	}()
	c := d.cube
	sid := 0
	if c.tracer != nil {
		sid = c.tracer.StartSpan(c.traceParent, "cube filter "+d.col)
		defer func() {
			c.tracer.SpanInt(sid, "rows_live", int64(c.Live()))
			c.tracer.EndSpan(sid)
		}()
	}
	d.active = pred != nil
	for i, row := range c.base.Rows() {
		old := c.failMask[i]
		fails := pred != nil && !pred(row[d.colIdx])
		var next uint64
		if fails {
			next = old | d.bit
		} else {
			next = old &^ d.bit
		}
		if next == old {
			continue
		}
		c.failMask[i] = next
		for _, g := range c.groups {
			g.rowChanged(i, old, next)
		}
	}
}

// Live reports how many rows pass every filter.
func (c *Cube) Live() int {
	n := 0
	for _, m := range c.failMask {
		if m == 0 {
			n++
		}
	}
	return n
}

// Materialize returns the rows passing every filter, except those of the
// dimensions listed in ignore (widgets exclude their own dimension so a
// selection does not filter its own widget).
func (c *Cube) Materialize(ignore ...*Dimension) *table.Table {
	sid := 0
	if c.tracer != nil {
		sid = c.tracer.StartSpan(c.traceParent, "cube materialize")
	}
	var mask uint64
	for _, d := range ignore {
		if d != nil {
			mask |= d.bit
		}
	}
	out := table.New(c.base.Schema())
	for i, m := range c.failMask {
		if m&^mask == 0 {
			out.Append(c.base.Row(i))
		}
	}
	if c.tracer != nil {
		c.tracer.SpanInt(sid, "rows_in", int64(c.base.Len()))
		c.tracer.SpanInt(sid, "rows_out", int64(out.Len()))
		c.tracer.EndSpan(sid)
	}
	return out
}

// ---------------------------------------------------------------------
// Groups

// Reduce is an invertible aggregate for incremental maintenance: count
// and sum qualify; order statistics do not (recompute those from a
// Materialize'd table instead).
type Reduce int

// Supported incremental reductions.
const (
	Count Reduce = iota
	Sum
)

// Group maintains per-key aggregates over the rows that pass every
// filter except its own dimension's.
type Group struct {
	cube *Cube
	dim  *Dimension
	// valIdx is the aggregated column (-1 for Count).
	valIdx int
	reduce Reduce
	totals map[string]*bucket
}

type bucket struct {
	key   value.V
	count int64
	sum   float64
}

// GroupBy registers an incrementally maintained group on dim, reducing
// the named value column (ignored for Count).
func (c *Cube) GroupBy(dim *Dimension, reduce Reduce, valueCol string) (*Group, error) {
	valIdx := -1
	if reduce == Sum {
		valIdx = c.base.Schema().Index(valueCol)
		if valIdx < 0 {
			return nil, fmt.Errorf("cube: value column %q not in %s", valueCol, c.base.Schema())
		}
	}
	g := &Group{cube: c, dim: dim, valIdx: valIdx, reduce: reduce, totals: map[string]*bucket{}}
	// Seed from current state.
	for i, m := range c.failMask {
		if m&^dim.bit == 0 {
			g.add(i)
		}
	}
	c.groups = append(c.groups, g)
	return g, nil
}

func (g *Group) keyOf(i int) (string, value.V) {
	v := g.cube.base.Row(i)[g.dim.colIdx]
	return string(byte(v.Kind())) + v.String(), v
}

func (g *Group) add(i int) {
	k, kv := g.keyOf(i)
	b, ok := g.totals[k]
	if !ok {
		b = &bucket{key: kv}
		g.totals[k] = b
	}
	b.count++
	if g.valIdx >= 0 {
		b.sum += g.cube.base.Row(i)[g.valIdx].Float()
	}
}

func (g *Group) remove(i int) {
	k, _ := g.keyOf(i)
	b, ok := g.totals[k]
	if !ok {
		return
	}
	b.count--
	if g.valIdx >= 0 {
		b.sum -= g.cube.base.Row(i)[g.valIdx].Float()
	}
	if b.count <= 0 {
		delete(g.totals, k)
	}
}

// rowChanged applies the filter-state delta of row i.
func (g *Group) rowChanged(i int, old, next uint64) {
	before := old&^g.dim.bit == 0
	after := next&^g.dim.bit == 0
	switch {
	case before && !after:
		g.remove(i)
	case !before && after:
		g.add(i)
	}
}

// Entry is one group bucket in a snapshot.
type Entry struct {
	// Key is the group key value.
	Key value.V
	// Count is the number of contributing rows.
	Count int64
	// Sum is the reduced sum (0 for Count groups).
	Sum float64
}

// Value returns the reduction result as a value.
func (e Entry) Value(r Reduce) value.V {
	if r == Sum {
		if e.Sum == float64(int64(e.Sum)) {
			return value.NewInt(int64(e.Sum))
		}
		return value.NewFloat(e.Sum)
	}
	return value.NewInt(e.Count)
}

// Snapshot returns the current buckets sorted by key.
func (g *Group) Snapshot() []Entry {
	out := make([]Entry, 0, len(g.totals))
	for _, b := range g.totals {
		out = append(out, Entry{Key: b.key, Count: b.count, Sum: b.sum})
	}
	sort.Slice(out, func(a, b int) bool { return value.Less(out[a].Key, out[b].Key) })
	return out
}

// Table renders the snapshot as a two-column table (key, value).
func (g *Group) Table(keyCol, valCol string) (*table.Table, error) {
	s, err := schema.New(schema.Column{Name: keyCol}, schema.Column{Name: valCol})
	if err != nil {
		return nil, err
	}
	t := table.New(s)
	for _, e := range g.Snapshot() {
		t.AppendValues(e.Key, e.Value(g.reduce))
	}
	return t, nil
}
