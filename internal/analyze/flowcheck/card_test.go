package flowcheck_test

import (
	"sync"
	"testing"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// dropNulls is a user operator that drops the rows whose cell is null:
// it does not keep the row count, and says so.
type dropNulls struct{ col string }

func (op dropNulls) Output() string  { return op.col }
func (op dropNulls) KeepsRows() bool { return false }
func (op dropNulls) Bind(_ *task.Env, in *schema.Schema) ([]int, task.CellFn, error) {
	idx, err := in.Require(op.col)
	return idx, func(dst, row []value.V) []value.V {
		if row[0].IsNull() {
			return dst
		}
		return append(dst, row[0])
	}, err
}

// registerDropNulls registers dropNulls as drop_nulls, once per process:
// the operator registry is global.
var registerDropNulls = sync.OnceValue(func() error {
	return task.RegisterOperator("drop_nulls", func(cfg *flowfile.Node) (task.MapOperator, error) {
		return dropNulls{cfg.Str("transform")}, nil
	})
})

// TestRegisteredOperatorCard: a registered map operator that drops rows
// leaves its stage's row count unknown, as the platform's extracts do,
// rather than carrying its input's exact count through.
func TestRegisteredOperatorCard(t *testing.T) {
	if err := registerDropNulls(); err != nil {
		t.Fatal(err)
	}
	f, err := flowfile.Parse("card", `
D:
  src: [region, amount]

F:
  D.out: D.src | T.d

T:
  d:
    type: map
    operator: drop_nulls
    transform: amount
`)
	if err != nil {
		t.Fatal(err)
	}
	specs, _, errs := task.NewRegistry().Parse(f)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	in := schema.MustFromNames("region", "amount")
	exact := flowcheck.Card{Min: 40, Max: 40}
	res := flowcheck.TransferStage(specs["d"], f.Tasks["d"], []flowcheck.Input{{Name: "src", Schema: in, Scope: srcScope(), Card: exact}}, in)
	if res.Card != flowcheck.CardUnknown() {
		t.Errorf("a map that drops rows over %+v rows: card %+v, want unknown", exact, res.Card)
	}
}
