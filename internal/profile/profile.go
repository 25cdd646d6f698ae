// Package profile implements the meta-dashboard feature the paper's
// future-work section commits to: "We want to auto-construct
// meta-dashboards which provide statistics and analysis of all the data
// columns used in the data pipeline. Since data cleaning is a
// non-trivial activity, we believe this feature would be of immense help
// for huge data sizes" (§6).
//
// Profile computes per-column statistics for a data object; BuildMeta
// assembles those statistics for every materialized data object of a
// dashboard into a generated flow file — a dashboard about the
// dashboard, built with the platform's own parts.
package profile

import (
	"fmt"
	"math"
	"strings"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// ColumnStats summarizes one column.
type ColumnStats struct {
	// Column is the column name.
	Column string
	// Kind is the dominant non-null value kind, the first in kind order
	// on a tie.
	Kind value.Kind
	// Rows / Nulls / Distinct are cardinalities.
	Rows, Nulls, Distinct int
	// Min and Max are extreme values (display form).
	Min, Max string
	// Mean and Stddev are populated for numeric columns.
	Mean, Stddev float64
	// TopValue / TopCount describe the most frequent value.
	TopValue string
	TopCount int
}

// ProfileSchema is the schema of Profile's output table.
var ProfileSchema = schema.MustFromNames(
	"column", "kind", "rows", "nulls", "distinct",
	"min", "max", "mean", "stddev", "top_value", "top_count")

// Profile computes statistics for every column of a table.
func Profile(t *table.Table) []ColumnStats {
	out := make([]ColumnStats, t.Schema().Len())
	for ci, col := range t.Schema().Columns() {
		st := ColumnStats{Column: col.Name, Rows: t.Len()}
		var kinds [value.Time + 1]int // by kind: a tie goes to the first in kind order
		counts := map[string]int{}
		var minV, maxV value.V
		var sum, sumSq float64
		numeric := 0
		for ri := 0; ri < t.Len(); ri++ {
			v := t.At(ri, ci)
			if v.IsNull() {
				st.Nulls++
				continue
			}
			kinds[v.Kind()]++
			key := v.String()
			counts[key]++
			if minV.IsNull() || value.Less(v, minV) {
				minV = v
			}
			if maxV.IsNull() || value.Less(maxV, v) {
				maxV = v
			}
			if v.Kind() == value.Int || v.Kind() == value.Float {
				f := v.Float()
				sum += f
				sumSq += f * f
				numeric++
			}
		}
		best := 0
		for k, n := range kinds {
			if n > best {
				best, st.Kind = n, value.Kind(k)
			}
		}
		st.Distinct = len(counts)
		st.Min = minV.String()
		st.Max = maxV.String()
		if numeric > 0 {
			st.Mean = sum / float64(numeric)
			variance := sumSq/float64(numeric) - st.Mean*st.Mean
			if variance > 0 {
				st.Stddev = math.Sqrt(variance)
			}
		}
		for val, n := range counts {
			if n > st.TopCount || (n == st.TopCount && val < st.TopValue) {
				st.TopCount = n
				st.TopValue = val
			}
		}
		out[ci] = st
	}
	return out
}

// Table renders column statistics as a data object.
func Table(stats []ColumnStats) *table.Table {
	t := table.New(ProfileSchema)
	for _, s := range stats {
		t.AppendValues(
			value.NewString(s.Column),
			value.NewString(s.Kind.String()),
			value.NewInt(int64(s.Rows)),
			value.NewInt(int64(s.Nulls)),
			value.NewInt(int64(s.Distinct)),
			value.NewString(s.Min),
			value.NewString(s.Max),
			value.NewFloat(round4(s.Mean)),
			value.NewFloat(round4(s.Stddev)),
			value.NewString(s.TopValue),
			value.NewInt(int64(s.TopCount)),
		)
	}
	return t
}

func round4(f float64) float64 { return math.Round(f*1e4) / 1e4 }

// BuildMeta generates the meta-dashboard for a dashboard that has been
// run: one profiled data object (and one Grid widget) per data object the
// run produced (batch.Result.Table builds an inline node from its input),
// assembled as an ordinary flow file so the meta-dashboard is itself a
// platform dashboard.
func BuildMeta(d *dashboard.Dashboard) (*dashboard.Dashboard, error) {
	res := d.Result()
	if res == nil {
		return nil, fmt.Errorf("profile: dashboard %s has not been run", d.Name)
	}
	mem := map[string][]byte{}
	var flow strings.Builder
	var layout strings.Builder
	fmt.Fprintf(&flow, "D:\n")
	names := res.SortedNames()
	for _, name := range names {
		fmt.Fprintf(&flow, "  %s_profile: [%s]\n", name, strings.Join(ProfileSchema.Names(), ", "))
	}
	flow.WriteString("\n")
	for _, name := range names {
		t, _ := res.Table(name)
		csv, err := connector.EncodeCSV(Table(Profile(t)))
		if err != nil {
			return nil, err
		}
		mem[name+"_profile.csv"] = csv
		fmt.Fprintf(&flow, "D.%s_profile:\n  source: mem:%s_profile.csv\n  format: csv\n  endpoint: true\n\n", name, name)
	}
	flow.WriteString("W:\n")
	for _, name := range names {
		fmt.Fprintf(&flow, "  %s_grid:\n    type: Grid\n    source: D.%s_profile\n", name, name)
	}
	layout.WriteString("L:\n")
	fmt.Fprintf(&layout, "  description: 'Data profile: %s'\n  rows:\n", d.Name)
	for _, name := range names {
		fmt.Fprintf(&layout, "    - [span12: W.%s_grid]\n", name)
	}
	src := flow.String() + "\n" + layout.String()
	f, err := flowfile.Parse(d.Name+"_profile", src)
	if err != nil {
		return nil, fmt.Errorf("profile: generated flow file invalid: %w", err)
	}
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{Mem: mem})
	meta, err := p.Compile(f, nil)
	if err != nil {
		return nil, err
	}
	// The profile CSV round-trips stats through display form, so the
	// loaded tables may re-type cells (e.g. "12" parses as Int) — that
	// is exactly what the data explorer shows and is intended.
	if err := meta.Run(); err != nil {
		return nil, err
	}
	return meta, nil
}
