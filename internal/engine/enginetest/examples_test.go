package enginetest

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shareinsights/internal/analyze"
	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/gen"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
	"shareinsights/internal/widget"
)

// extractConst pulls a backquoted string constant out of an example's
// main.go, so the differential suite runs the exact flow files the
// examples ship — not a paraphrase that could drift.
func extractConst(t *testing.T, path, name string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	marker := name + " = `"
	i := strings.Index(string(src), marker)
	if i < 0 {
		t.Fatalf("%s: const %s not found", path, name)
	}
	rest := string(src)[i+len(marker):]
	j := strings.Index(rest, "`")
	if j < 0 {
		t.Fatalf("%s: const %s is unterminated", path, name)
	}
	return rest[:j]
}

// examplesDir locates the repo's examples from the test's working
// directory (internal/engine/enginetest).
func examplesDir(t *testing.T) string {
	t.Helper()
	d := filepath.Join("..", "..", "..", "examples")
	if _, err := os.Stat(d); err != nil {
		t.Skipf("examples directory not found: %v", err)
	}
	return d
}

// registerExampleExtensions installs the user extensions the examples
// register in their main(): the KPI widget type and a deterministic
// stand-in for the servicedesk resolution predictor. Global registries,
// so once per process.
var registerExampleExtensions = sync.OnceFunc(func() {
	_ = widget.Register(&widget.Descriptor{
		Type:        "KPI",
		DataAttrs:   []widget.Attr{{Name: "value", Required: true}, {Name: "label"}},
		NeedsSource: true,
		Render: func(inst *widget.Instance, env widget.RenderEnv, w io.Writer) error {
			return nil
		},
	})
})

func registerPredictor(t *testing.T, reg *task.Registry) {
	t.Helper()
	err := reg.RegisterFunc("predict_resolution", func(cfg *flowfile.Node) (*task.FuncSpec, error) {
		textCol, outCol := cfg.Str("text_column"), cfg.Str("output")
		return &task.FuncSpec{
			OutFn: func(in []task.Input) (*schema.Schema, error) {
				return in[0].Schema.Extend(outCol)
			},
			ExecFn: func(env *task.Env, in []*table.Table, names []string) (*table.Table, error) {
				src := in[0]
				out := table.New(src.Schema().ExtendOrSame(outCol))
				idx := src.Schema().Index(textCol)
				for _, r := range src.Rows() {
					days := int64(len(r[idx].Str())%10 + 1)
					out.Append(append(r.Clone(), value.NewInt(days)))
				}
				return out, nil
			},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exampleCase describes one example dashboard: its flow constants (run
// in order against one platform, as the example's main() does) and the
// generated source data.
type exampleCase struct {
	dir       string
	flows     []string // const names in main.go, run in order
	mem       func() map[string][]byte
	resources map[string][]byte
	predictor bool
}

var exampleCases = []exampleCase{
	{
		dir:   "quickstart",
		flows: []string{"flow"},
		mem: func() map[string][]byte {
			return map[string][]byte{"sales.csv": []byte(extractedQuickstartCSV)}
		},
	},
	{
		dir:   "apache",
		flows: []string{"flow"},
		mem: func() map[string][]byte {
			opts := gen.ApacheOptions{Seed: 7}
			return map[string][]byte{
				"svn_jira_summary.csv": gen.SvnJiraSummaryCSV(opts),
				"project_meta.csv":     gen.ProjectMetaCSV(),
			}
		},
	},
	{
		dir:   "ipl",
		flows: []string{"processingFlow", "consumptionFlow"},
		mem: func() map[string][]byte {
			return map[string][]byte{
				"tweets.csv":    gen.TweetsCSV(gen.TweetsOptions{Seed: 11, N: 20000}),
				"dim_teams.csv": gen.DimTeamsCSV(),
			}
		},
		resources: map[string][]byte{
			"players.txt":    gen.PlayersDict(),
			"teams.csv":      gen.TeamsDict(),
			"cities.ind.csv": gen.CitiesDict(),
		},
		predictor: false,
	},
	{
		dir:   "servicedesk",
		flows: []string{"flow"},
		mem: func() map[string][]byte {
			return map[string][]byte{"tickets.csv": gen.TicketsCSV(3, 2000)}
		},
		predictor: true,
	},
}

// extractedQuickstartCSV is filled in TestExampleFlowsDifferential from
// the quickstart source before cases run.
var extractedQuickstartCSV string

// runExample compiles and runs the case's flows on one platform with
// the given columnar mode, returning every produced table keyed by
// "flowIndex/name".
func runExample(t *testing.T, dir string, ec exampleCase, columnar string) map[string]*table.Table {
	t.Helper()
	p := dashboard.NewPlatform()
	p.Parallelism = 1
	p.Columnar = columnar
	p.Connectors = connector.NewRegistry(connector.Options{Mem: ec.mem()})
	if ec.predictor {
		registerPredictor(t, p.Tasks)
	}
	out := map[string]*table.Table{}
	for fi, constName := range ec.flows {
		src := extractConst(t, filepath.Join(dir, "main.go"), constName)
		f, err := flowfile.Parse(ec.dir+"_"+constName, src)
		if err != nil {
			t.Fatalf("%s %s: parse: %v", ec.dir, constName, err)
		}
		d, err := p.Compile(f, ec.resources)
		if err != nil {
			t.Fatalf("%s %s: compile: %v", ec.dir, constName, err)
		}
		if err := d.Run(); err != nil {
			t.Fatalf("%s %s (columnar=%s): run: %v", ec.dir, constName, columnar, err)
		}
		res := d.Result()
		for _, name := range res.SortedNames() {
			tb, _ := res.Table(name)
			out[fmt.Sprintf("%d/%s", fi, name)] = tb
		}
	}
	return out
}

// TestExampleFlowsDifferential runs every example flow file shipped in
// examples/ through the row engine and the columnar engine and requires
// every produced data object to match exactly.
func TestExampleFlowsDifferential(t *testing.T) {
	registerExampleExtensions()
	base := examplesDir(t)
	extractedQuickstartCSV = extractConst(t, filepath.Join(base, "quickstart", "main.go"), "salesCSV")
	for _, ec := range exampleCases {
		ec := ec
		t.Run(ec.dir, func(t *testing.T) {
			dir := filepath.Join(base, ec.dir)
			row := runExample(t, dir, ec, "off")
			col := runExample(t, dir, ec, "on")
			if len(row) == 0 {
				t.Fatal("example produced no tables")
			}
			if len(col) != len(row) {
				t.Fatalf("row run produced %d tables, columnar %d", len(row), len(col))
			}
			for name, want := range row {
				got, ok := col[name]
				if !ok {
					t.Errorf("columnar run missing %s", name)
					continue
				}
				if !want.Equal(got) {
					t.Errorf("%s differs between paths:\nrow:\n%s\ncolumnar:\n%s",
						name, want.Format(10), got.Format(10))
					continue
				}
				assertKindsEqual(t, name, want, got)
			}
		})
	}
}

// TestQuickstartFlowFileInSync guards examples/quickstart/dashboard.flow
// — the standalone flow file CI lints with `shareinsights lint
// -fail-on=error` — against drifting from the constant the example
// program actually runs.
func TestQuickstartFlowFileInSync(t *testing.T) {
	base := examplesDir(t)
	want := extractConst(t, filepath.Join(base, "quickstart", "main.go"), "flow")
	got, err := os.ReadFile(filepath.Join(base, "quickstart", "dashboard.flow"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(got)) != strings.TrimSpace(want) {
		t.Fatalf("examples/quickstart/dashboard.flow differs from the flow constant in main.go; regenerate the file from the constant")
	}
}

// TestExampleFlowsLintClean is the static half of the example smoke
// gate: every flow file the examples ship must lint with no
// error-severity findings (the `lint -fail-on=error` contract,
// docs/LINTING.md#exit-codes). Warnings and advisories are tolerated.
func TestExampleFlowsLintClean(t *testing.T) {
	registerExampleExtensions()
	base := examplesDir(t)
	for _, ec := range exampleCases {
		ec := ec
		t.Run(ec.dir, func(t *testing.T) {
			p := dashboard.NewPlatform()
			p.Connectors = connector.NewRegistry(connector.Options{Mem: map[string][]byte{}})
			if ec.predictor {
				registerPredictor(t, p.Tasks)
			}
			for _, constName := range ec.flows {
				src := extractConst(t, filepath.Join(base, ec.dir, "main.go"), constName)
				f, err := flowfile.Parse(ec.dir+"_"+constName, src)
				if err != nil {
					t.Fatalf("%s: parse: %v", constName, err)
				}
				report, _ := analyze.LintWithFacts(f, analyze.Options{Tasks: p.Tasks, Connectors: p.Connectors})
				for _, fd := range report.Findings {
					if fd.Severity >= analyze.Error {
						t.Errorf("%s: %s", constName, fd)
					}
				}
			}
		})
	}
}

// update regenerates the golden plan snapshots under testdata/plans.
var update = flag.Bool("update", false, "rewrite golden plan snapshots")

// TestGoldenPlans snapshots `shareinsights explain` output for every
// example dashboard: the optimizer's plan for the shipped flows is part
// of the contract, and any drift (a rule firing differently, evidence
// changing, a pushdown appearing or vanishing) must be a conscious
// choice. Regenerate with `go test ./internal/engine/enginetest -run
// TestGoldenPlans -update`.
func TestGoldenPlans(t *testing.T) {
	registerExampleExtensions()
	base := examplesDir(t)
	for _, ec := range exampleCases {
		ec := ec
		t.Run(ec.dir, func(t *testing.T) {
			p := dashboard.NewPlatform()
			p.Parallelism = 1
			p.Connectors = connector.NewRegistry(connector.Options{Mem: ec.mem()})
			if ec.predictor {
				registerPredictor(t, p.Tasks)
			}
			for _, constName := range ec.flows {
				src := extractConst(t, filepath.Join(base, ec.dir, "main.go"), constName)
				f, err := flowfile.Parse(ec.dir+"_"+constName, src)
				if err != nil {
					t.Fatalf("%s: parse: %v", constName, err)
				}
				d, err := p.Compile(f, ec.resources)
				if err != nil {
					t.Fatalf("%s: compile: %v", constName, err)
				}
				plan := d.Explain()
				if plan == nil {
					t.Fatalf("%s: Explain returned nil", constName)
				}
				got := plan.Format()
				golden := filepath.Join("testdata", "plans", ec.dir+"_"+constName+".golden")
				if *update {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%s: %v (run with -update to regenerate)", constName, err)
				}
				if got != string(want) {
					t.Errorf("%s: plan drifted from %s (run with -update if intended):\n--- golden:\n%s\n--- got:\n%s",
						constName, golden, want, got)
				}
				// Later flows may read objects this one publishes; run so
				// the catalog is populated for their compilation.
				if err := d.Run(); err != nil {
					t.Fatalf("%s: run: %v", constName, err)
				}
			}
		})
	}
}
