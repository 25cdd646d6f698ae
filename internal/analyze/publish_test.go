package analyze

import (
	"strings"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

const publishFlow = `
D:
  src: [region, amount]
  out: [region, total]

D.src:
  source: mem:src.csv

F:
  D.out: D.src | T.sum

  D.out:
    endpoint: true
    publish: sales_totals

T:
  sum:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
`

func lintPublish(t *testing.T, name, src string, existing []PublishedObject) *Report {
	t.Helper()
	f, err := flowfile.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	report, _ := LintWithFacts(f, Options{
		Tasks:     task.NewRegistry(),
		Published: func() []PublishedObject { return existing },
	})
	return report
}

func TestFL044CrossDashboardCollision(t *testing.T) {
	report := lintPublish(t, "demo", publishFlow, []PublishedObject{
		{Name: "sales_totals", Dashboard: "other-dash"},
	})
	got := findRule(report, "FL044")
	if len(got) != 1 {
		t.Fatalf("want 1 FL044, got %+v", report.Findings)
	}
	fd := got[0]
	if fd.Severity != Warning || fd.Entity != "D.out" || fd.Line == 0 {
		t.Fatalf("FL044 = %+v", fd)
	}
	if !strings.Contains(fd.Message, `dashboard "other-dash"`) || !strings.Contains(fd.Message, "last writer wins") {
		t.Fatalf("FL044 message: %s", fd.Message)
	}
}

func TestFL044RepublishOwnObjectIsFine(t *testing.T) {
	// Republishing your own object on a re-run is the normal versioning
	// path, not shadowing.
	report := lintPublish(t, "demo", publishFlow, []PublishedObject{
		{Name: "sales_totals", Dashboard: "demo"},
	})
	if got := findRule(report, "FL044"); len(got) != 0 {
		t.Fatalf("own republish flagged: %+v", got)
	}
}

func TestFL044NearMissGetsDidYouMean(t *testing.T) {
	src := strings.Replace(publishFlow, "publish: sales_totals", "publish: sales_totl", 1)
	report := lintPublish(t, "demo", src, []PublishedObject{
		{Name: "sales_totals", Dashboard: "other-dash"},
	})
	got := findRule(report, "FL044")
	if len(got) != 1 {
		t.Fatalf("want 1 FL044 near-miss, got %+v", report.Findings)
	}
	fd := got[0]
	if fd.Severity != Info || !strings.Contains(fd.Hint, `"sales_totals"`) {
		t.Fatalf("FL044 near-miss = %+v", fd)
	}
}

func TestFL044WithinFileDuplicate(t *testing.T) {
	src := strings.Replace(publishFlow,
		"D:\n  src: [region, amount]\n  out: [region, total]",
		"D:\n  src: [region, amount]\n  out: [region, total]\n  out2: [region, total]", 1)
	src = strings.Replace(src,
		"T:",
		"  D.out2: D.src | T.sum\n\n  D.out2:\n    endpoint: true\n    publish: sales_totals\n\nT:", 1)
	report := lintPublish(t, "demo", src, nil)
	got := findRule(report, "FL044")
	if len(got) != 1 {
		t.Fatalf("want 1 FL044 duplicate, got %+v", report.Findings)
	}
	fd := got[0]
	if fd.Severity != Warning || fd.Entity != "D.out2" || !strings.Contains(fd.Message, "D.out") {
		t.Fatalf("FL044 duplicate = %+v", fd)
	}
}

func TestFL044SilentWithoutCatalogHook(t *testing.T) {
	report := lintPublish(t, "demo", publishFlow, nil)
	if got := findRule(report, "FL044"); len(got) != 0 {
		t.Fatalf("FL044 fired without any existing objects: %+v", got)
	}
}
