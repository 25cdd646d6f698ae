package flowfile

import (
	"strings"
	"testing"
	"time"
)

// A programmatically built flow with no outputs must be reported, not
// panic Validate (the parser always produces at least one output, but
// Validate is also called on synthesized files).
func TestValidateZeroOutputFlow(t *testing.T) {
	f := &File{
		Name: "synth",
		Data: map[string]*DataDef{},
		Flows: []*Flow{{
			Line:     3,
			Pipeline: &Pipeline{Inputs: []Ref{{Section: "D", Name: "src"}}},
		}},
		Tasks:   map[string]*TaskDef{},
		Widgets: map[string]*WidgetDef{},
	}
	err := f.Validate(true)
	if err == nil {
		t.Fatal("want a validation error for a flow with no outputs")
	}
	if !strings.Contains(err.Error(), "no output data objects") {
		t.Fatalf("error = %q, want it to mention missing outputs", err)
	}
}

// A flow without a pipeline must also be reported without panicking.
func TestValidateNilPipelineFlow(t *testing.T) {
	f := &File{
		Name:    "synth",
		Data:    map[string]*DataDef{},
		Flows:   []*Flow{{Line: 7, Outputs: []Ref{{Section: "D", Name: "out"}}}},
		Tasks:   map[string]*TaskDef{},
		Widgets: map[string]*WidgetDef{},
	}
	err := f.Validate(true)
	if err == nil {
		t.Fatal("want a validation error for a flow with no pipeline")
	}
	if !strings.Contains(err.Error(), "has no pipeline") {
		t.Fatalf("error = %q, want it to mention the missing pipeline", err)
	}
	// SharedInputs walks the same flows and must tolerate the nil too.
	if got := f.SharedInputs(); len(got) != 0 {
		t.Fatalf("SharedInputs = %v, want none", got)
	}
}

// Validation problems carry the offending reference's source line, so
// the CLI, editor and linter all render "line N" uniformly.
func TestValidateProblemsCarryLines(t *testing.T) {
	const src = `
D:
  sales: [region, amount]

D.sales:
  source: sales.csv

F:
  +D.out: D.sales | T.missing
`
	f, err := Parse("demo", src)
	if err != nil {
		t.Fatal(err)
	}
	verr := f.Validate(true)
	if verr == nil {
		t.Fatal("want a validation error for the dangling task reference")
	}
	ve, ok := verr.(*ValidationError)
	if !ok {
		t.Fatalf("error type = %T, want *ValidationError", verr)
	}
	found := false
	for _, p := range ve.Problems {
		if strings.Contains(p.Message, "T.missing") {
			found = true
			if p.Line == 0 {
				t.Fatalf("problem %q has no line", p.Message)
			}
			if !strings.Contains(p.String(), "line ") {
				t.Fatalf("problem String() = %q, want a line prefix", p.String())
			}
		}
	}
	if !found {
		t.Fatalf("no problem mentions T.missing: %v", ve.Problems)
	}
}

// TestValidateResilienceProps pins the value constraints on the
// run-time degradation details (docs/RESILIENCE.md): a typo in
// on_error/timeout/retries must fail at save time, not mid-outage.
func TestValidateResilienceProps(t *testing.T) {
	const tmpl = `
D:
  sales: [region, amount]

D.sales:
  source: sales.csv
  %s

F:
  +D.out: D.sales | T.agg

T:
  agg:
    type: groupby
    groupby: [region]
`
	cases := []struct {
		name, prop, wantErr string
	}{
		{"valid on_error stale", "on_error: stale", ""},
		{"valid on_error empty", "on_error: empty", ""},
		{"valid on_error fail", "on_error: fail", ""},
		{"bad on_error", "on_error: retry", "on_error must be fail, stale or empty"},
		{"valid timeout", "timeout: 30s", ""},
		{"unitless timeout", "timeout: 30", "timeout must be a positive duration"},
		{"negative timeout", "timeout: -5s", "timeout must be a positive duration"},
		{"valid retries", "retries: 3", ""},
		{"zero retries", "retries: 0", ""},
		{"negative retries", "retries: -1", "retries must be a non-negative integer"},
		{"non-numeric retries", "retries: lots", "retries must be a non-negative integer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Parse("demo", strings.Replace(tmpl, "%s", tc.prop, 1))
			if err != nil {
				t.Fatal(err)
			}
			verr := f.Validate(true)
			if tc.wantErr == "" {
				if verr != nil {
					t.Fatalf("Validate = %v, want ok", verr)
				}
				return
			}
			if verr == nil || !strings.Contains(verr.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want %q", verr, tc.wantErr)
			}
		})
	}
}

// TestDetailAccessors pins the typed run-time reads of the platform
// details: a legal value parses, an unset or illegal one (possible only
// on a DataDef Validate never saw) reads as unset.
func TestDetailAccessors(t *testing.T) {
	set := &DataDef{}
	for k, v := range map[string]string{"on_error": "stale", "timeout": "2s", "retries": "0", "cache": "off", "max_rows": "7"} {
		set.SetProp(k, v)
	}
	if n, ok := set.Retries(); set.OnError() != "stale" || set.Timeout() != 2*time.Second || n != 0 || !ok || !set.Uncached() || set.MaxRows() != 7 {
		t.Errorf("set details read as %q %v %d/%v %v %d", set.OnError(), set.Timeout(), n, ok, set.Uncached(), set.MaxRows())
	}
	for _, d := range []*DataDef{{}, {Props: map[string]string{"on_error": "retry", "timeout": "-1s", "retries": "-1", "cache": "OFF", "max_rows": "0"}}} {
		if n, ok := d.Retries(); d.OnError() != "fail" || d.Timeout() != 0 || n != 0 || ok || d.Uncached() || d.MaxRows() != 0 {
			t.Errorf("%v read as %q %v %d/%v %v %d", d.Props, d.OnError(), d.Timeout(), n, ok, d.Uncached(), d.MaxRows())
		}
	}
}
