package enginetest

import (
	"math"
	"strconv"
	"testing"

	"shareinsights/internal/expr"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// foldSource is the group-by input: a five-group key k, then a column
// of each vector kind — int, float (a NaN in it, and null throughout
// group g4), bool, string, numeric string and all-null — with a null in
// every seventh row of i, b and s.
func foldSource(n int) *table.Table {
	tb := table.New(schema.MustFromNames("k", "i", "f", "b", "s", "n", "z"))
	numbers := []string{"1", "2.5", "-3", "10", "0.25"}
	for r := 0; r < n; r++ {
		cell := func(v value.V) value.V {
			if r%7 == 3 {
				return value.VNull
			}
			return v
		}
		f := value.NewFloat(float64(r%11) / 4)
		switch {
		case r%5 == 4:
			f = value.VNull
		case r == 12:
			f = value.NewFloat(math.NaN())
		}
		tb.AppendValues(value.NewString("g"+strconv.Itoa(r%5)), cell(value.NewInt(int64(r*7%13-6))), f,
			cell(value.NewBool(r%3 == 0)), cell(value.NewString("w"+strconv.Itoa(r%4))),
			value.NewString(numbers[r%len(numbers)]), value.VNull)
	}
	return tb
}

// TestGroupByFoldsEveryKind runs every registered aggregate over every
// kind of column the kernel can meet — int, float, bool, plain and
// dictionary-coded string, numeric string, all-null, a left outer join's
// holed selections and a map-expr's boxed output — and holds the kernel
// to the reference group-by, cell for cell and kind for kind. Where the
// kernel has no typed loop it folds with the accumulator itself.
func TestGroupByFoldsEveryKind(t *testing.T) {
	src := foldSource(64)
	plain, _ := colstore.FromTable(src)
	b := colstore.NewBuilder(src.Schema())
	for _, r := range src.Rows() {
		b.Append(r)
	}
	coded, _ := colstore.FromTable(b.Table())

	rb := colstore.NewBuilder(schema.MustFromNames("k", "ri", "rs", "rb"))
	for g := 0; g < 3; g++ { // groups g3 and g4 find no partner
		rb.Append([]value.V{value.NewString("g" + strconv.Itoa(g)), value.NewInt(int64(g * 10)),
			value.NewString("r" + strconv.Itoa(g%2)), value.NewBool(g == 1)})
	}
	right, _ := colstore.FromTable(rb.Table())
	join := &colstore.Join{LeftKeys: []int{0}, RightKeys: []int{0}, KeepLeft: true,
		Cols: []colstore.JoinCol{{Col: 0}, {Col: 3}, {Right: true, Col: 1}, {Right: true, Col: 2}, {Right: true, Col: 3}},
		Out:  schema.MustFromNames("k", "b", "ri", "rs", "rb")}
	fan := &colstore.Fan{Chain: []colstore.Kernel{(*colstore.Probe)(join)}, Sinks: []colstore.Kernel{colstore.Materialize}}
	outs, _, err := fan.Must(coded, right)
	if err != nil {
		t.Fatal(err)
	}
	holed := outs[0]

	n, err := expr.Parse("n + i")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := colstore.CompileVec(n, src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	out := src.Schema().ExtendOrSame("x")
	boxed, err := (&colstore.MapExpr{Eval: ev, Out: out, Slot: out.Index("x")}).Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if k := boxed.Col(out.Index("x")).Kind(); k <= value.Time {
		t.Fatalf("n + i is not boxed: %v", k)
	}

	for name, in := range map[string]*colstore.Batch{"plain": plain, "coded": coded, "holed": holed, "boxed": boxed} {
		for _, col := range in.Schema().Names()[1:] {
			spec := &task.GroupBySpec{GroupBy: []string{"k"}}
			for _, op := range task.Aggregates() {
				spec.Aggs = append(spec.Aggs, task.AggSpec{Operator: op, ApplyOn: col, OutField: op})
			}
			ker, _, ok := spec.BindVec(&task.Env{}, task.Input{Schema: in.Schema()})
			if !ok {
				t.Fatalf("%s.%s: the group-by did not bind", name, col)
			}
			got, err := ker.Run(in)
			if err != nil {
				t.Fatalf("%s.%s: %v", name, col, err)
			}
			want, err := refGroupBy(spec, in.ToTable())
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%s.%s: %d groups, want %d", name, col, got.Len(), want.Len())
			}
			for i, r := range got.ToTable().Rows() {
				for j, x := range r {
					if y := want.At(i, j); x.Kind() != y.Kind() || x.String() != y.String() {
						t.Errorf("%s.%s group %d %s = %v (%v), the reference says %v (%v)",
							name, col, i, want.Schema().Col(j).Name, x, x.Kind(), y, y.Kind())
					}
				}
			}
		}
	}
}
