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
//
// Cells are read through table.At, so a column-backed endpoint is never
// materialized to rows. A dimension numbers its column's key classes (the
// reference group-by's: kind plus display form) once; a value filter is
// one verdict per class, then one pass over the class ids, while a range
// is judged per row; a group's buckets
// are slices indexed by class id, keeping exact int64 sums, and a float
// sum is re-folded in row order when read, so sums and their kinds are
// the ones a fresh group-by computes.
package cube

import (
	"fmt"
	"math"
	"slices"
	"time"

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

// Dimension returns (creating on first use) the dimension over a column.
func (c *Cube) Dimension(col string) (*Dimension, error) {
	if d, ok := c.dims[col]; ok {
		return d, nil
	}
	idx := c.base.Schema().Index(col)
	if idx < 0 {
		return nil, fmt.Errorf("cube: column %q not in %s", col, c.base.Schema())
	}
	if len(c.dims) >= maxDimensions {
		return nil, fmt.Errorf("cube: dimension limit (%d) reached", maxDimensions)
	}
	d := &Dimension{cube: c, col: col, colIdx: idx, bit: uint64(1) << uint(len(c.dims))}
	d.index()
	c.dims[col] = d
	return d, nil
}

// Dimension is one filterable column. ids[i] is row i's key class,
// reps[id] the class's first cell and keep[id] Filter's verdict on it.
type Dimension struct {
	cube   *Cube
	col    string
	colIdx int
	bit    uint64
	active bool // a filter is applied
	ids    []int32
	reps   []value.V
	keep   []bool
}

// classOf returns a cell's key class — kind plus display form, the
// reference group-by's identity (the int 1 is not the float 1 or the
// string "1", -0 is not 0) — as a comparable value: the cell itself,
// except that every NaN is one class and a time is its displayed second.
func classOf(v value.V) value.V {
	switch {
	case v.Kind() == value.Time:
		return value.NewTime(v.Time().Truncate(time.Second))
	case v.Kind() == value.Float && math.IsNaN(v.Float()):
		return value.NewFloat(math.NaN())
	}
	return v
}

// index numbers the column's key classes in first-seen order.
func (d *Dimension) index() {
	ids := map[value.V]int32{}
	d.ids = make([]int32, d.cube.base.Len())
	for i := range d.ids {
		v := d.cube.base.At(i, d.colIdx)
		k := classOf(v)
		id, ok := ids[k]
		if !ok {
			id = int32(len(d.reps))
			ids[k] = id
			d.reps = append(d.reps, v)
		}
		d.ids[i] = id
	}
	d.keep = make([]bool, len(d.reps))
}

// Filter keeps rows whose column value (display form) is in vals. The
// display form is the class's, so it is judged once per class.
func (d *Dimension) Filter(vals ...string) {
	set := make(map[string]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	var buf [32]byte
	for id, v := range d.reps {
		d.keep[id] = set[string(v.AppendTo(buf[:0]))]
	}
	d.apply(func(i int) bool { return d.keep[d.ids[i]] })
}

// FilterRange keeps rows with lo <= value <= hi, judged per row: times
// within one displayed second share a class but not a verdict.
func (d *Dimension) FilterRange(lo, hi value.V) {
	d.apply(func(i int) bool {
		v := d.cube.base.At(i, d.colIdx)
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
	d.apply(nil)
}

// apply installs a filter (keep reports whether row i passes it; nil
// passes all) and adds or removes each row whose state changed in every
// group that observes the change.
func (d *Dimension) apply(keep func(i int) bool) {
	c := d.cube
	sid := 0
	if c.tracer != nil {
		sid = c.tracer.StartSpan(c.traceParent, "cube filter "+d.col)
		defer func() {
			c.tracer.SpanInt(sid, "rows_live", int64(c.Live()))
			c.tracer.EndSpan(sid)
		}()
	}
	d.active = keep != nil
	for i, old := range c.failMask {
		next := old &^ d.bit
		if keep != nil && !keep(i) {
			next = old | d.bit
		}
		if next == old {
			continue
		}
		c.failMask[i] = next
		for _, g := range c.groups {
			if was, is := old&^g.dim.bit == 0, next&^g.dim.bit == 0; was && !is {
				g.update(i, -1)
			} else if is && !was {
				g.update(i, 1)
			}
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
// selection does not filter its own widget), sharing the base's storage.
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
	var idx []int32
	for i, m := range c.failMask {
		if m&^mask == 0 {
			idx = append(idx, int32(i))
		}
	}
	out := c.base.Select(idx)
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
// filter except its own dimension's, in buckets indexed by the
// dimension's class ids: the int64 sum of the non-null values (a count
// sums one per row) and how many of them are floats.
type Group struct {
	cube   *Cube
	dim    *Dimension
	valIdx int // the aggregated column, -1 for Count
	sum    []int64
	floats []int64

	// Table's scratch: per bucket its first live row and re-folded float
	// sum, and the live buckets in output order.
	first  []int32
	fsum   []float64
	order  []int32
	schema *schema.Schema
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
	n := len(dim.reps)
	g := &Group{cube: c, dim: dim, valIdx: valIdx, sum: make([]int64, n), floats: make([]int64, n),
		first: make([]int32, n), fsum: make([]float64, n)}
	// Seed from current state.
	for i, m := range c.failMask {
		if m&^dim.bit == 0 {
			g.update(i, 1)
		}
	}
	c.groups = append(c.groups, g)
	return g, nil
}

// update adds (sign 1) or removes (sign -1) row i. The int64 sum wraps
// on overflow exactly as the reference's does, and removal undoes it.
func (g *Group) update(i int, sign int64) {
	id := g.dim.ids[i]
	if g.valIdx < 0 {
		g.sum[id] += sign
		return
	}
	if v := g.cube.base.At(i, g.valIdx); !v.IsNull() {
		g.sum[id] += sign * v.Int()
		if v.Kind() == value.Float {
			g.floats[id] += sign
		}
	}
}

// Table renders the live buckets as a two-column table (key, value), in
// the reference group-by's order. One pass over the rows the group
// observes finds each bucket's first live row — the reference's
// insertion order and key cell — and re-folds the sum of a bucket with
// float members in row order; the buckets are then stably sorted by key.
func (g *Group) Table(keyCol, valCol string) (*table.Table, error) {
	if g.schema == nil || g.schema.Col(0).Name != keyCol || g.schema.Col(1).Name != valCol {
		s, err := schema.New(schema.Column{Name: keyCol}, schema.Column{Name: valCol})
		if err != nil {
			return nil, err
		}
		g.schema = s
	}
	base := g.cube.base
	for id := range g.first {
		g.first[id], g.fsum[id] = -1, 0
	}
	g.order = g.order[:0]
	for i, m := range g.cube.failMask {
		if m&^g.dim.bit != 0 {
			continue
		}
		id := g.dim.ids[i]
		if g.first[id] < 0 {
			g.first[id] = int32(i)
			g.order = append(g.order, id)
		}
		if g.floats[id] > 0 {
			if v := base.At(i, g.valIdx); !v.IsNull() {
				g.fsum[id] += v.Float()
			}
		}
	}
	key := func(id int32) value.V { return base.At(int(g.first[id]), g.dim.colIdx) }
	slices.SortStableFunc(g.order, func(a, b int32) int { return value.Compare(key(a), key(b)) })
	cells := make([]value.V, 2*len(g.order))
	rows := make([]table.Row, len(g.order))
	for o, id := range g.order {
		val := value.NewInt(g.sum[id])
		if g.floats[id] > 0 {
			val = value.NewFloat(g.fsum[id])
		}
		rows[o] = cells[2*o : 2*o+2 : 2*o+2]
		rows[o][0], rows[o][1] = key(id), val
	}
	return table.FromRows(g.schema, rows)
}
