package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// rowsOf turns a table into the row objects GET /ds/{ds} serves, so
// batch_join (no HTTP) and the serve workloads share the comparisons.
func rowsOf(t *table.Table) []map[string]any {
	names := t.Schema().Names()
	out := make([]map[string]any, 0, t.Len())
	for i := 0; i < t.Len(); i++ {
		row := make(map[string]any, len(names))
		for j, v := range t.Row(i) {
			switch v.Kind() {
			case value.Int, value.Float:
				row[names[j]] = v.Float()
			default:
				row[names[j]] = v.String()
			}
		}
		out = append(out, row)
	}
	return out
}

func parseRows(body []byte) ([]map[string]any, error) {
	var rows []map[string]any
	if err := json.Unmarshal(body, &rows); err != nil {
		return nil, fmt.Errorf("decode rows: %w", err)
	}
	return rows, nil
}

// keyString renders a served key cell: group keys parsed from text may
// come back as numbers (a year), the reference keeps them as strings.
func keyString(v any) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprint(v)
}

// checkTotals requires rows to be exactly the reference group-by: one
// row per key, every sum equal.
func checkTotals(what string, rows []map[string]any, keyCol, valCol string, want totals) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", what, len(rows), len(want))
	}
	for _, r := range rows {
		k := keyString(r[keyCol])
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("%s: unexpected key %q", what, k)
		}
		if got, ok := r[valCol].(float64); !ok || got != float64(w) {
			return fmt.Errorf("%s: %s=%q %s=%v, want %d", what, keyCol, k, valCol, r[valCol], w)
		}
	}
	return nil
}

// checkTop requires rows to be a top-n of the reference group-by: the n
// largest sums in descending order, each beside the key it belongs to.
// Which of several tied keys made the cut is the engine's choice.
func checkTop(what string, rows []map[string]any, keyCol, valCol string, all totals, n int) error {
	want := all.top(n)
	if len(rows) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", what, len(rows), len(want))
	}
	got := make([]float64, len(rows))
	for i, r := range rows {
		v, ok := r[valCol].(float64)
		k := keyString(r[keyCol])
		if !ok || v != float64(all[k]) {
			return fmt.Errorf("%s: %s=%q %s=%v, want %d", what, keyCol, k, valCol, r[valCol], all[k])
		}
		got[i] = v
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] > got[j] }) {
		return fmt.Errorf("%s: not in descending %s order", what, valCol)
	}
	for i := range got {
		if got[i] != float64(want[i]) {
			return fmt.Errorf("%s: rank %d is %v, want %d", what, i+1, got[i], want[i])
		}
	}
	return nil
}
