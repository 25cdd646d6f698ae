// Package ops generates the self-hosted operations meta-dashboard: the
// platform monitoring itself with its own parts, exactly as the
// paper's Race2Insights hackathon was monitored with telemetry
// dashboards built on the platform (Figures 31, 32, 35).
//
// BuildOps turns a run's execution statistics — per-stage timings,
// queue waits, row counts, cache hits, skipped sinks — into an
// ordinary generated flow file (data objects fed over the mem
// connector, flows with topn/groupby tasks, Grid and BarChart
// widgets), then compiles and runs it. The result is a regular
// Dashboard: renderable as HTML, explorable over the data API, even
// profilable — dogfooding in the spirit of profile.BuildMeta.
//
// It lives in a subpackage of internal/obs because it depends on the
// dashboard runtime; internal/obs itself stays standard-library-only
// so every layer of the system can import it.
package ops

import (
	"fmt"
	"sort"
	"strings"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// StagesSchema is the schema of the per-stage timings data object.
var StagesSchema = schema.MustFromNames(
	"output", "stage", "rows_in", "rows_out", "duration_us", "queue_wait_us")

// ObjectsSchema is the schema of the per-data-object status table.
var ObjectsSchema = schema.MustFromNames("object", "rows", "status")

// SummarySchema is the schema of the run-summary table.
var SummarySchema = schema.MustFromNames("metric", "value")

// RunsSchema is the schema of the run-history panel: the flight
// recorder's recent runs for this dashboard (docs/OBSERVABILITY.md).
var RunsSchema = schema.MustFromNames(
	"run", "status", "duration_us", "stages", "retries", "cache_hits")

// RegressSchema is the schema of the baseline-comparison panel: the
// latest run's per-stage deltas against the EWMA baseline.
var RegressSchema = schema.MustFromNames(
	"output", "stage", "path", "last_us", "baseline_us", "delta_pct", "regressed")

// stagesTable renders every executed stage.
func stagesTable(st *batch.Stats) *table.Table {
	t := table.New(StagesSchema)
	for _, tm := range st.Timings {
		t.AppendValues(
			value.NewString(tm.Output),
			value.NewString(tm.Stage),
			value.NewInt(int64(tm.RowsIn)),
			value.NewInt(int64(tm.Rows)),
			value.NewInt(tm.Duration.Microseconds()),
			value.NewInt(tm.QueueWait.Microseconds()),
		)
	}
	return t
}

// objectsTable renders every data object's materialization status.
func objectsTable(st *batch.Stats) *table.Table {
	hits := map[string]bool{}
	for _, n := range st.CacheHits {
		hits[n] = true
	}
	names := make([]string, 0, len(st.RowsProduced))
	for n := range st.RowsProduced {
		names = append(names, n)
	}
	sort.Strings(names)
	t := table.New(ObjectsSchema)
	for _, n := range names {
		status := "computed"
		if hits[n] {
			status = "cache_hit"
		}
		t.AppendValues(value.NewString(n), value.NewInt(int64(st.RowsProduced[n])), value.NewString(status))
	}
	skipped := append([]string(nil), st.SkippedSinks...)
	sort.Strings(skipped)
	for _, n := range skipped {
		t.AppendValues(value.NewString(n), value.NewInt(0), value.NewString("skipped"))
	}
	return t
}

// summaryTable renders run-level totals.
func summaryTable(d *dashboard.Dashboard) *table.Table {
	st := &d.Result().Stats
	var total int64
	for _, tm := range st.Timings {
		total += tm.Duration.Microseconds()
	}
	t := table.New(SummarySchema)
	add := func(metric string, v int64) {
		t.AppendValues(value.NewString(metric), value.NewInt(v))
	}
	add("tasks_run", int64(st.TasksRun))
	add("data_objects", int64(len(st.RowsProduced)))
	add("cache_hits", int64(len(st.CacheHits)))
	add("skipped_sinks", int64(len(st.SkippedSinks)))
	add("stage_time_us", total)
	add("transferred_bytes", int64(d.TransferredBytes))
	return t
}

// runsTable renders the flight recorder's recent runs.
func runsTable(runs []history.RunRecord) *table.Table {
	t := table.New(RunsSchema)
	for _, r := range runs {
		t.AppendValues(
			value.NewInt(int64(r.Seq)),
			value.NewString(r.Status),
			value.NewInt(r.DurationUS),
			value.NewInt(int64(len(r.Stages))),
			value.NewInt(int64(r.Retries)),
			value.NewInt(int64(r.CacheHits)),
		)
	}
	return t
}

// regressTable renders the latest run's baseline comparison.
func regressTable(deltas []history.StageDelta) *table.Table {
	t := table.New(RegressSchema)
	for _, dl := range deltas {
		regressed := "no"
		if dl.Regressed {
			regressed = "yes"
		}
		t.AppendValues(
			value.NewString(dl.Output),
			value.NewString(dl.Stage),
			value.NewString(dl.Path),
			value.NewInt(dl.LastUS),
			value.NewInt(dl.BaselineUS),
			value.NewFloat(dl.DeltaPct),
			value.NewString(regressed),
		)
	}
	return t
}

// Panel is an extra table to mount on the generated ops page as its
// own Grid widget — the server adds admission/shedding and result-cache
// panels this way without ops knowing about those subsystems.
type Panel struct {
	// Name is the data-object and widget base name. It must be a valid
	// flow-file identifier, distinct from the built-in panel names.
	Name string
	// Table is the panel's data; its schema becomes the declaration.
	Table *table.Table
}

// BuildOps generates, compiles and runs the ops meta-dashboard for a
// dashboard that has been run. When the platform records run history,
// the page gains a run-history panel and — once a baseline exists — a
// regression panel comparing the latest run against it. Any extras are
// appended as additional Grid panels.
func BuildOps(d *dashboard.Dashboard, extras ...Panel) (*dashboard.Dashboard, error) {
	res := d.Result()
	if res == nil {
		return nil, fmt.Errorf("ops: dashboard %s has not been run", d.Name)
	}
	tables := map[string]*table.Table{
		"stages":  stagesTable(&res.Stats),
		"objects": objectsTable(&res.Stats),
		"summary": summaryTable(d),
	}
	schemas := map[string]*schema.Schema{
		"stages": StagesSchema, "objects": ObjectsSchema, "summary": SummarySchema,
	}
	names := []string{"stages", "objects", "summary"}
	var withHistory bool
	if rec := d.History(); rec != nil {
		if runs := rec.Runs(d.Name, 10); len(runs) > 0 {
			withHistory = true
			tables["runs"], schemas["runs"] = runsTable(runs), RunsSchema
			tables["regress"], schemas["regress"] = regressTable(runs[0].Deltas), RegressSchema
			names = append(names, "runs", "regress")
		}
	}
	var extraNames []string
	for _, p := range extras {
		if p.Table == nil || tables[p.Name] != nil {
			continue
		}
		tables[p.Name], schemas[p.Name] = p.Table, p.Table.Schema()
		names = append(names, p.Name)
		extraNames = append(extraNames, p.Name)
	}
	mem := map[string][]byte{}
	for name, t := range tables {
		csv, err := connector.EncodeCSV(t)
		if err != nil {
			return nil, err
		}
		mem[name+".csv"] = csv
	}

	var src strings.Builder
	src.WriteString("D:\n")
	for _, name := range names {
		fmt.Fprintf(&src, "  %s: [%s]\n", name, strings.Join(schemas[name].Names(), ", "))
	}
	src.WriteString("\n")
	for _, name := range names {
		fmt.Fprintf(&src, "D.%s:\n  source: mem:%s.csv\n  format: csv\n  endpoint: true\n\n", name, name)
	}
	src.WriteString(`F:
  +D.slowest_stages: D.stages | T.slowest
  +D.stage_time_by_object: D.stages | T.time_by_object

T:
  slowest:
    type: topn
    orderby_column: [duration_us DESC]
    limit: 10
  time_by_object:
    type: groupby
    groupby: [output]
    aggregates:
      - operator: sum
        apply_on: duration_us
        out_field: total_us

W:
  summary_grid:
    type: Grid
    source: D.summary
  slowest_grid:
    type: Grid
    source: D.slowest_stages
  time_chart:
    type: BarChart
    source: D.stage_time_by_object
    x: output
    y: total_us
  objects_grid:
    type: Grid
    source: D.objects
`)
	if withHistory {
		src.WriteString(`  runs_grid:
    type: Grid
    source: D.runs
  regress_grid:
    type: Grid
    source: D.regress
`)
	}
	for _, name := range extraNames {
		fmt.Fprintf(&src, "  %s_grid:\n    type: Grid\n    source: D.%s\n", name, name)
	}
	src.WriteString("\nL:\n")
	fmt.Fprintf(&src, "  description: 'Ops: %s'\n", d.Name)
	src.WriteString(`  rows:
    - [span4: W.summary_grid, span8: W.time_chart]
    - [span12: W.slowest_grid]
    - [span12: W.objects_grid]
`)
	if withHistory {
		src.WriteString("    - [span6: W.runs_grid, span6: W.regress_grid]\n")
	}
	for _, name := range extraNames {
		fmt.Fprintf(&src, "    - [span12: W.%s_grid]\n", name)
	}

	f, err := flowfile.Parse(d.Name+"_ops", src.String())
	if err != nil {
		return nil, fmt.Errorf("ops: generated flow file invalid: %w", err)
	}
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{Mem: mem})
	meta, err := p.Compile(f, nil)
	if err != nil {
		return nil, err
	}
	if err := meta.Run(); err != nil {
		return nil, err
	}
	return meta, nil
}
