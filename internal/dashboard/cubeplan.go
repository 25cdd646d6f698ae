package dashboard

import (
	"shareinsights/internal/engine/cube"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// cubePlan is the cube-engine compilation of a widget's interaction
// pipeline — the counterpart of the paper's generated JavaScript data
// cube (§4.1). A client pipeline qualifies when it is a chain of
// interaction filters followed by at most one single-key group-by whose
// aggregates are invertible (sum/count): then filters map to cube
// dimensions and the aggregation to an incrementally maintained group,
// so a selection change costs a delta update instead of a re-scan.
//
// Pipelines outside that shape (multi-key groups, order statistics,
// topn, joins) fall back to the reference task executor; results are
// identical either way and tests assert it.
type cubePlan struct {
	filters []cubeFilter
	// group is nil for pure-filter pipelines (widget shows rows).
	group *cubeGroup

	c    *cube.Cube
	dims []*cube.Dimension // aligned with filters
	g    *cube.Group
}

type cubeFilter struct {
	// column is the endpoint-data column filtered.
	column string
	// sourceWidget / valCol locate the driving selection.
	sourceWidget string
	valCol       string
}

type cubeGroup struct {
	keyCol   string
	reduce   cube.Reduce
	valueCol string
	outKey   string
	outVal   string
}

// compileCubePlan recognizes the accelerable shape; nil means fallback.
func compileCubePlan(client []task.Spec) *cubePlan {
	if len(client) == 0 {
		return nil
	}
	plan := &cubePlan{}
	i := 0
	for ; i < len(client); i++ {
		f, ok := client[i].(*task.FilterSpec)
		if !ok {
			break
		}
		if f.SourceWidget == "" || f.Expr != nil {
			return nil // static filters belong to the server prefix
		}
		for j, col := range f.By {
			valCol := col
			if j < len(f.Val) && f.Val[j] != "" {
				valCol = f.Val[j]
			}
			plan.filters = append(plan.filters, cubeFilter{
				column: col, sourceWidget: f.SourceWidget, valCol: valCol,
			})
		}
	}
	if len(plan.filters) == 0 {
		return nil
	}
	filtered := map[string]bool{}
	for _, f := range plan.filters {
		if filtered[f.column] {
			return nil // a cube dimension holds one filter; the reference ANDs both
		}
		filtered[f.column] = true
	}
	switch {
	case i == len(client):
		// Pure filter chain: the widget shows filtered rows.
		return plan
	case i == len(client)-1:
		g, ok := client[i].(*task.GroupBySpec)
		if !ok || len(g.GroupBy) != 1 || len(g.Aggs) != 1 || g.OrderByAggregates {
			return nil
		}
		agg := g.Aggs[0]
		cg := &cubeGroup{keyCol: g.GroupBy[0], outKey: g.GroupBy[0], outVal: agg.OutField}
		if filtered[cg.keyCol] {
			return nil // a cube group ignores the filter on its own key
		}
		switch agg.Operator {
		case "count":
			cg.reduce = cube.Count
		case "sum":
			cg.reduce = cube.Sum
			cg.valueCol = agg.ApplyOn
		default:
			return nil
		}
		plan.group = cg
		return plan
	default:
		return nil
	}
}

// bind attaches the plan to materialized endpoint data.
func (cp *cubePlan) bind(endpoint *table.Table) error {
	cp.c = cube.New(endpoint)
	cp.dims = make([]*cube.Dimension, len(cp.filters))
	for i, f := range cp.filters {
		d, err := cp.c.Dimension(f.column)
		if err != nil {
			return err
		}
		cp.dims[i] = d
	}
	if cp.group != nil {
		// The group key gets its own (never-filtered) dimension so the
		// crossfilter own-dimension exclusion is a no-op here.
		keyDim, err := cp.c.Dimension(cp.group.keyCol)
		if err != nil {
			return err
		}
		g, err := cp.c.GroupBy(keyDim, cp.group.reduce, cp.group.valueCol)
		if err != nil {
			return err
		}
		cp.g = g
	}
	return nil
}

// refresh applies the current widget selections and returns the widget's
// data.
func (cp *cubePlan) refresh(env *task.Env) (*table.Table, error) {
	for i, f := range cp.filters {
		dim := cp.dims[i]
		vals, ok := env.WidgetValue(f.sourceWidget, f.valCol)
		if !ok || len(vals) == 0 {
			dim.ClearFilter()
			continue
		}
		sel := task.ParseSelection(vals)
		if sel.Range && len(sel.Values) >= 2 {
			dim.FilterRange(value.Parse(sel.Values[0]), value.Parse(sel.Values[1]))
			continue
		}
		dim.Filter(sel.Values...)
	}
	if cp.g == nil {
		return cp.c.Materialize(), nil
	}
	return cp.g.Table(cp.group.outKey, cp.group.outVal)
}
