package table

import (
	"strings"
	"testing"

	"shareinsights/internal/schema"
	"shareinsights/internal/value"
)

func sample() *Table {
	t := New(schema.MustFromNames("name", "score"))
	t.AppendValues(value.NewString("bob"), value.NewInt(3))
	t.AppendValues(value.NewString("alice"), value.NewInt(5))
	t.AppendValues(value.NewString("carol"), value.NewInt(3))
	return t
}

func TestAppendAndCell(t *testing.T) {
	tb := sample()
	if tb.Len() != 3 {
		t.Fatalf("len = %d", tb.Len())
	}
	if tb.Cell(1, "name").Str() != "alice" || tb.Cell(1, "score").Int() != 5 {
		t.Error("cell lookup wrong")
	}
	if !tb.Cell(0, "missing").IsNull() {
		t.Error("missing column should be null")
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	tb.Append(Row{value.NewInt(1)})
}

func TestFromRowsValidatesArity(t *testing.T) {
	s := schema.MustFromNames("a", "b")
	_, err := FromRows(s, []Row{{value.NewInt(1)}})
	if err == nil {
		t.Error("short row should fail")
	}
	tb, err := FromRows(s, []Row{{value.NewInt(1), value.NewInt(2)}})
	if err != nil || tb.Len() != 1 {
		t.Errorf("FromRows: %v", err)
	}
}

func TestEqual(t *testing.T) {
	a, b := sample(), sample()
	if !a.Equal(b) {
		t.Error("identical tables unequal")
	}
	b.Rows()[0][1] = value.NewInt(99)
	if a.Equal(b) {
		t.Error("differing tables equal")
	}
	c := New(schema.MustFromNames("name", "other"))
	if a.Equal(c) {
		t.Error("schema mismatch should be unequal")
	}
}

func TestFormat(t *testing.T) {
	tb := sample()
	out := tb.Format(2)
	if !strings.Contains(out, "name") || !strings.Contains(out, "alice") {
		t.Errorf("format missing content:\n%s", out)
	}
	if !strings.Contains(out, "1 more rows") {
		t.Errorf("format missing truncation notice:\n%s", out)
	}
	if strings.Contains(tb.Format(0), "more rows") {
		t.Error("Format(0) should show everything")
	}
}

func TestSizeBytes(t *testing.T) {
	tb := sample()
	if tb.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
	bigger := sample()
	bigger.AppendValues(value.NewString(strings.Repeat("x", 1000)), value.NewInt(1))
	if bigger.SizeBytes() <= tb.SizeBytes()+900 {
		t.Error("SizeBytes should reflect string payloads")
	}
}
