package connector

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
)

// The encoders as they were before they read cells through At: every
// row materialized, and JSON built as one map per row handed to
// json.Marshal. They are the oracle the streaming encoders are held to
// (the same bytes, or the same error), and nothing else calls them.

func oracleJSON(t *table.Table) ([]byte, error) {
	names := t.Schema().Names()
	out := make([]map[string]any, 0, t.Len())
	for _, row := range t.Rows() {
		obj := make(map[string]any, len(names))
		for i, n := range names {
			obj[n] = oracleJSONValue(row[i])
		}
		out = append(out, obj)
	}
	return json.Marshal(out)
}

func oracleJSONValue(v value.V) any {
	switch v.Kind() {
	case value.Null:
		return nil
	case value.Bool:
		return v.Bool()
	case value.Int:
		return v.Int()
	case value.Float:
		return v.Float()
	case value.Time:
		return v.String()
	default:
		return v.Str()
	}
}

func oracleCSV(t *table.Table) ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(t.Schema().Names()); err != nil {
		return nil, err
	}
	rec := make([]string, t.Schema().Len())
	for _, row := range t.Rows() {
		for i, v := range row {
			rec[i] = v.String()
		}
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

func oracleSBIN(t *table.Table) []byte {
	var buf bytes.Buffer
	buf.WriteString(sbinMagic)
	writeUvarint(&buf, uint64(t.Schema().Len()))
	for _, n := range t.Schema().Names() {
		writeUvarint(&buf, uint64(len(n)))
		buf.WriteString(n)
	}
	writeUvarint(&buf, uint64(t.Len()))
	for _, row := range t.Rows() {
		for _, v := range row {
			buf.WriteByte(byte(v.Kind()))
			switch v.Kind() {
			case value.Bool:
				if v.Bool() {
					buf.WriteByte(1)
				} else {
					buf.WriteByte(0)
				}
			case value.Int:
				writeVarint(&buf, v.Int())
			case value.Float:
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float()))
				buf.Write(b[:])
			case value.String:
				writeUvarint(&buf, uint64(len(v.Str())))
				buf.WriteString(v.Str())
			case value.Time:
				writeVarint(&buf, v.Time().UnixNano())
			}
		}
	}
	return buf.Bytes()
}

// layouts returns src's cells row-backed, column-backed through a
// Builder (dictionary-coded strings; mixed and time columns boxed) and,
// when every column is kind-uniform, column-backed in plain vectors.
func layouts(src *table.Table) map[string]*table.Table {
	b := colstore.NewBuilder(src.Schema())
	for _, r := range src.Rows() {
		b.Append(r)
	}
	out := map[string]*table.Table{"row-backed": src, "built": b.Table()}
	if plain, ok := colstore.FromTable(src); ok {
		out["plain"] = plain.ToTable()
	}
	return out
}

// sameEncodings holds EncodeJSON, EncodeCSV and EncodeSBIN to their
// oracles over every layout of src: identical bytes, identical error text.
func sameEncodings(t *testing.T, src *table.Table) {
	t.Helper()
	for label, tb := range layouts(src) {
		got, gotErr := EncodeJSON(tb)
		want, wantErr := oracleJSON(tb)
		if !bytes.Equal(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s JSON:\n%s %v\noracle:\n%s %v", label, got, gotErr, want, wantErr)
		}
		got, gotErr = EncodeCSV(tb)
		want, wantErr = oracleCSV(tb)
		if !bytes.Equal(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s CSV:\n%q %v\noracle:\n%q %v", label, got, gotErr, want, wantErr)
		}
		if got, want := EncodeSBIN(tb), oracleSBIN(tb); !bytes.Equal(got, want) {
			t.Fatalf("%s SBIN:\n%q\noracle:\n%q", label, got, want)
		}
	}
}

// TestEncodersMatchOracle covers what json.Marshal does to strings —
// HTML characters, control characters, U+2028 / U+2029, invalid UTF-8 —
// and to floats — -0, both sides of the e-notation cut-offs at 1e-6 and
// 1e21, the extremes, NaN and ±Inf failing — in cells and in unsorted
// column names, plus every kind, nulls, empty and column-less tables.
func TestEncodersMatchOracle(t *testing.T) {
	strs := []string{`<a href="x">&amp;</a>`, "tab\tnl\n\r\b\f\x00\x1f\x7f", "\u2028\u2029", "bad \xff\xfe\xc3", "\u00e9\u6f22\U0001f600", `"q" \b\`, ""}
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1.5e-10, 1e20, 999999999999999e6, 1e21, 5e-324, math.MaxFloat64, -0.1, 1}
	s := schema.MustFromNames("zeta", "Alpha", "<b>", "\u00e9", `a"b`, "\u2028", "n")
	mixed := table.New(s)
	for i := 0; i < len(floats); i++ {
		var cell value.V
		switch i % 4 {
		case 1:
			cell = value.NewInt(int64(i))
		case 2:
			cell = value.NewTime(time.Date(2015, 5, 31, 12, 0, i, 5, time.UTC))
		case 3:
			cell = value.NewBool(i%2 == 0)
		}
		mixed.AppendValues(value.NewString(strs[i%len(strs)]), value.NewFloat(floats[i]), cell,
			value.NewInt([]int64{math.MinInt64, math.MaxInt64, 0, -1}[i%4]), value.VNull,
			value.NewString(strs[(i+3)%len(strs)]), value.NewFloat(-floats[i]))
	}
	uniform := table.New(schema.MustFromNames("s", "f", "i", "b"))
	for i, f := range floats {
		uniform.AppendValues(value.NewString(strs[i%len(strs)]), value.NewFloat(f), value.NewInt(int64(i)*1e17), value.NewBool(i%3 == 0))
	}
	empty := table.New(schema.MustFromNames("b", "a"))
	noColumns := table.New(schema.MustNew())
	noColumns.AppendValues()
	noColumns.AppendValues()
	for name, tb := range map[string]*table.Table{"mixed": mixed, "uniform": uniform, "empty": empty, "no columns": noColumns, "sbin fixture": sbinFixture()} {
		t.Run(name, func(t *testing.T) { sameEncodings(t, tb) })
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tb := table.New(schema.MustFromNames("ok", "bad"))
		tb.AppendValues(value.NewInt(1), value.NewFloat(1))
		tb.AppendValues(value.NewInt(2), value.NewFloat(bad))
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			sameEncodings(t, tb)
			if _, err := EncodeJSON(tb); err == nil {
				t.Fatal("a non-finite float encoded")
			}
		})
	}
}

// FuzzEncodeJSON holds the encoders to their oracles over fuzzed column
// names, fuzzed text (each line a string cell and its value.Parse
// inference) and fuzzed floats and ints, row- and column-backed.
func FuzzEncodeJSON(f *testing.F) {
	f.Add("key", "north\n1\n2.5\ntrue\n2015-05-31\n<&>", 0.1, int64(7))
	f.Add(" ", "\xff\n\t\n", 1e21, int64(math.MinInt64))
	f.Add("a", "", math.Inf(1), int64(0))
	f.Add("b\"", "1e-7\n-0\nNaN", 1e-7, int64(-1))
	f.Fuzz(func(t *testing.T, name, text string, x float64, n int64) {
		if name == "" || name == "text" || name == "parsed" || name == "x" || name == "n" {
			name = "k"
		}
		tb := table.New(schema.MustFromNames(name, "text", "parsed", "x", "n"))
		for i, line := range strings.SplitN(text, "\n", 32) {
			xv := value.NewFloat(x * float64(i))
			if i%3 == 2 {
				xv = value.VNull
			}
			tb.AppendValues(value.NewInt(int64(i)), value.NewString(line), value.Parse(line), xv, value.NewInt(n-int64(i)))
		}
		sameEncodings(t, tb)
	})
}
