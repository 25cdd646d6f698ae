package connector

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// sameDecode asserts the one-pass decoder and the reference agree: the
// same error text, or the same table — row count, row order, and per
// cell the same kind and payload (value.Equal would let "1" pass for 1).
func sameDecode(t *testing.T, got, want *table.Table, gotErr, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		return
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d rows, reference %d", got.Len(), want.Len())
	}
	if got.Fingerprint() != want.Fingerprint() || got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("fingerprint %s size %d, reference %s size %d",
			got.Fingerprint(), got.SizeBytes(), want.Fingerprint(), want.SizeBytes())
	}
	gr, wr := got.Rows(), want.Rows()
	for i := range wr {
		for j := range wr[i] {
			g, w := gr[i][j], wr[i][j]
			if g != w {
				t.Fatalf("row %d col %d: %v %q, reference %v %q", i, j, g.Kind(), g.String(), w.Kind(), w.String())
			}
		}
	}
}

// csvFuzzCase expands the fuzzer's mode byte into a decode request:
// comma / tab / `separator:` property, a path-mapped column, skipped
// columns and a pushed predicate (one that binds, or one that does not).
func csvFuzzCase(mode uint8) (sep rune, d *flowfile.DataDef, s *schema.Schema, pd Pushdown) {
	d = &flowfile.DataDef{Name: "f"}
	switch mode & 3 {
	case 1:
		sep = '\t'
	case 2:
		d.SetProp("separator", ";")
	}
	s = schema.MustFromNames("a", "b", "c")
	if mode&4 != 0 {
		s = schema.MustNew(schema.Column{Name: "a"}, schema.Column{Name: "b", Path: "x.b"}, schema.Column{Name: "c"})
	}
	if mode&8 != 0 {
		pd.SkipColumns = []string{"b", "ghost"}
	}
	if mode&16 != 0 {
		pd.SkipColumns = append(pd.SkipColumns, "a")
	}
	switch mode >> 5 & 3 {
	case 1:
		pd.Predicate = "a > 2"
	case 2:
		pd.Predicate = "c == 'web' or b < 1.5"
	case 3:
		pd.Predicate = "nope > 1"
	}
	return sep, d, s, pd
}

func FuzzDecodeCSV(f *testing.F) {
	for _, p := range []string{
		"",
		"r3,p17,web\nr1,p2,store\n",
		"a,b,c\n1,2,3\n4,5,6\n",
		"c,a,b\nweb,7,1.5\n",
		" a , x.b ,c\r\n1,2,3\r\n",
		"a,b\n1,2\n",
		"b,a,c,a\n1,2,3,4\n",
		"1,2\n3\n4,5,6,7\n\n\n8,9,10\n",
		"\"quoted, comma\",\"doubled \"\"quote\"\"\",\"multi\nline\"\n1,2,3\n",
		"1,\"unterminated\n2,3,4\n",
		"1,bare\"quote,3\n",
		"a,b,zzz\n1,\"bad\"x,3\n",
		"   1,  true,   2024-01-05\n-0, inf,nan\n1e999,0x1p-2,99999999999999999999\n",
		"1\t2\t3\n4\t5\t6\n",
		"1;2;3\n4;5;6\n",
		"a\tb\tc\n1\t2\t3\n",
		",,\n,,\n",
		"1,2,3",
		"\xff,\x00,\n",
		"2024-01-05T10:00:00Z,2024-01-05 10:00:00,x\n1,2,3\n",
		"\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n1,2,3\n\n\n\n\n\r\n\r\n",
		"\"\n\n\n\n\n\n\n\n\n\n\n\n\",2,3\n",
	} {
		for _, mode := range []uint8{0, 1, 2, 4, 8, 24, 32, 64, 96, 40, 72} {
			f.Add([]byte(p), mode)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte, mode uint8) {
		sep, d, s, pd := csvFuzzCase(mode)
		want, wantRes, wantErr := referenceDecodeCSV(sep, d, s, payload, pd)
		got, gotRes, gotErr := (&csvFormat{sep: sep}).DecodePushdown(d, s, payload, pd)
		sameDecode(t, got, want, gotErr, wantErr)
		if gotErr == nil && !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("pushdown result %+v, reference %+v", gotRes, wantRes)
		}
	})
}

// sbinFixture is a table with every kind, nulls, a mixed column and an
// empty string in the very last cell.
func sbinFixture() *table.Table {
	t := table.New(schema.MustFromNames("s", "i", "f", "b", "t", "mixed", "last"))
	ts := time.Date(2015, 5, 31, 12, 0, 0, 5, time.UTC)
	t.AppendValues(value.NewString("north"), value.NewInt(-3), value.NewFloat(1.5), value.VTrue, value.NewTime(ts), value.NewInt(1), value.NewString("x"))
	t.AppendValues(value.VNull, value.VNull, value.VNull, value.VNull, value.VNull, value.NewString("1"), value.VNull)
	t.AppendValues(value.NewString(""), value.NewInt(math.MaxInt64), value.NewFloat(math.NaN()), value.VFalse, value.NewTime(time.Unix(0, -1)), value.NewFloat(1), value.NewString(""))
	return t
}

func FuzzDecodeSBIN(f *testing.F) {
	whole := EncodeSBIN(sbinFixture())
	f.Add(whole, uint8(0))
	f.Add(whole, uint8(1))
	f.Add(whole, uint8(2))
	f.Add(whole[:len(whole)-1], uint8(0))
	f.Add(whole[:len(whole)/2], uint8(0))
	f.Add(EncodeSBIN(table.New(schema.MustFromNames("s", "i"))), uint8(0))
	f.Add(EncodeSBIN(table.New(schema.MustNew())), uint8(3))
	f.Add([]byte(sbinMagic), uint8(0))
	f.Add([]byte(sbinMagic+"\x01\x01s\xff\xff\xff\xff\xff\xff\xff\xff\x7f"), uint8(0))
	f.Add([]byte(sbinMagic+"\x00\xff\xff\xff\xff\x0f"), uint8(3))
	f.Add([]byte(sbinMagic+"\x01\xff\xff\x03"), uint8(0))
	f.Add([]byte(sbinMagic+"\x01\x01s\x02\x04\x00\x09"), uint8(0))
	f.Add([]byte("BOGUS"), uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, mode uint8) {
		// The declared schema binds by name: all columns, a reordered
		// subset with a path-mapped column, one the payload lacks, none.
		var s *schema.Schema
		switch mode & 3 {
		case 0:
			s = sbinFixture().Schema()
		case 1:
			s = schema.MustNew(schema.Column{Name: "n", Path: "i"}, schema.Column{Name: "mixed"}, schema.Column{Name: "s"})
		case 2:
			s = schema.MustFromNames("s", "absent")
		case 3:
			s = schema.MustNew()
		}
		want, wantErr := referenceDecodeSBIN(s, payload)
		got, gotErr := (&sbinFormat{}).Decode(&flowfile.DataDef{Name: "f"}, s, payload)
		sameDecode(t, got, want, gotErr, wantErr)
	})
}

// TestSBINRoundTripsTrailingEmptyString pins the defect the row decoder
// had: an empty string as the payload's last cell read as io.EOF.
func TestSBINRoundTripsTrailingEmptyString(t *testing.T) {
	src := sbinFixture()
	got, err := DecodeSBIN(EncodeSBIN(src), src.Schema())
	sameDecode(t, got, src, err, nil)
}

// benchCSV is the benchmark's upload shape: r3,p17,web,123,4.
func benchCSV(rows int) ([]byte, *schema.Schema) {
	var buf bytes.Buffer
	channels := []string{"web", "store", "phone"}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "r%d,p%d,%s,%d,%d\n", i%8, i%40, channels[i%3], 100+i%900, 1+i%9)
	}
	return buf.Bytes(), schema.MustFromNames("region", "product", "channel", "amount", "qty")
}

// TestDecodeCSVAllocs bounds the decode by a constant, not by the rows:
// the text is copied once, fields are substrings of the copy, and what is
// left is the vectors' growth and one clone per dictionary entry — the
// same at 1,000 and 10,000 rows of the benchmark's shape. A column of
// all-distinct strings costs its first dictMinEntries cells as entries and
// then nothing per row. The constants leave room for the race detector's
// own allocations. What the decode returns is the batch the
// kernels run on, so a decoded source reaches a group-by with no
// conversion at all.
func TestDecodeCSVAllocs(t *testing.T) {
	d := &flowfile.DataDef{Name: "sales"}
	decode := func(payload []byte, s *schema.Schema, rows int) (tb *table.Table, allocs float64) {
		allocs = testing.AllocsPerRun(10, func() {
			var err error
			if tb, err = (&csvFormat{}).Decode(d, s, payload); err != nil || tb.Len() != rows {
				t.Fatal(tb.Len(), err)
			}
		})
		return tb, allocs
	}
	var tb *table.Table
	var s *schema.Schema
	for _, rows := range []int{10000, 1000} {
		var payload []byte
		var allocs float64
		payload, s = benchCSV(rows)
		if tb, allocs = decode(payload, s, rows); allocs > 250 {
			t.Errorf("decoding %d rows allocates %.0f times, want at most 250 whatever the rows", rows, allocs)
		}
	}
	var distinct bytes.Buffer
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&distinct, "id-%d,%d\n", i, i)
	}
	if _, allocs := decode(distinct.Bytes(), schema.MustFromNames("id", "n"), 10000); allocs > 1024+250 {
		t.Errorf("decoding 10000 distinct strings allocates %.0f times, want at most %d", allocs, 1024+250)
	}
	spec := &task.GroupBySpec{GroupBy: []string{"region"}, Aggs: []task.AggSpec{{Operator: "sum", ApplyOn: "amount", OutField: "total"}}}
	ker, _, ok := spec.BindVec(nil, task.Input{Schema: s})
	if !ok {
		t.Fatal("group-by did not bind a columnar kernel")
	}
	var b *colstore.Batch
	if n := testing.AllocsPerRun(10, func() { b, ok = colstore.FromTable(tb) }); n != 0 || !ok {
		t.Fatalf("FromTable on a decoded table: ok=%v, %v allocations, want the backing batch for free", ok, n)
	}
	out, err := ker.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := colstore.FromTable(out.ToTable()); again != out {
		t.Error("a kernel's output does not come back as the same batch")
	}
	if out.Len() != 8 {
		t.Errorf("group-by produced %d groups, want 8", out.Len())
	}
}

// TestDecodeCSVNewlineFlood: what a decode allocates follows the rows it
// produces, not the lines the payload has. encoding/csv skips blank lines
// and a quoted field may span any number of them, so a payload that is
// almost all newlines decodes to one row and must cost about that.
func TestDecodeCSVNewlineFlood(t *testing.T) {
	names := make([]string, 20)
	rec := make([]string, 20)
	for i := range names {
		names[i], rec[i] = fmt.Sprintf("c%d", i), "x"
	}
	s := schema.MustFromNames(names...)
	d := &flowfile.DataDef{Name: "flood"}
	flood := bytes.Repeat([]byte{'\n'}, 1<<20)
	line := strings.Join(rec, ",") + "\n"
	for name, payload := range map[string][]byte{
		"blank lines":  append(append([]byte(nil), flood...), line...),
		"quoted field": []byte("\"" + string(flood) + "\"" + line[1:]),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tb, err := (&csvFormat{}).Decode(d, s, payload)
		runtime.ReadMemStats(&after)
		if err != nil || tb.Len() != 1 {
			t.Fatalf("%s: %v rows, err %v; want 1 row", name, tb.Len(), err)
		}
		// The quoted field is one string the size of the payload, which
		// encoding/csv grows into; sizing vectors by lines would be 300x.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(payload)); got > limit {
			t.Errorf("%s: decoding %d bytes into 1 row allocated %d bytes, want under %d", name, len(payload), got, limit)
		}
	}
}

func BenchmarkDecodeCSV30k(b *testing.B) {
	payload, s := benchCSV(30000)
	d := &flowfile.DataDef{Name: "sales"}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&csvFormat{}).Decode(d, s, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// sbinFacts is an sbin payload of the batch_join fact shape: one string
// column cycling through distinct values, six int columns.
func sbinFacts(rows, distinct int) ([]byte, *schema.Schema) {
	src := table.New(schema.MustFromNames("project", "year", "noOfBugs", "noOfCheckins", "noOfEmails", "noOfContributors", "noOfReleases"))
	for i := 0; i < rows; i++ {
		src.AppendValues(value.NewString("proj"+strconv.Itoa(i%distinct)), value.NewInt(int64(2000+i%15)), value.NewInt(int64(i%97)),
			value.NewInt(int64(i%1000)), value.NewInt(int64(i%313)), value.NewInt(int64(i%41)), value.NewInt(int64(i%7)))
	}
	return EncodeSBIN(src), src.Schema()
}

// TestDecodeSBINAllocs: a string value its column has already seen costs
// nothing to decode — 10,000 rows over 50 values allocate the 50 strings
// plus the vectors' growth — and a column of all-distinct strings, which
// reverts to a plain vector, still costs its one string per cell and no
// more than it did before columns were coded (10,113 for this payload at
// the parent commit, 10,154 now: the dictionary's first 1,024 entries).
// The constants leave room for the race detector's own allocations.
func TestDecodeSBINAllocs(t *testing.T) {
	const rows = 10000
	d := &flowfile.DataDef{Name: "facts"}
	for _, tc := range []struct {
		distinct int
		max      float64
	}{
		{50, 50 + 250},
		{rows, rows + 300},
	} {
		payload, s := sbinFacts(rows, tc.distinct)
		allocs := testing.AllocsPerRun(5, func() {
			if tb, err := (&sbinFormat{}).Decode(d, s, payload); err != nil || tb.Len() != rows {
				t.Fatal(tb.Len(), err)
			}
		})
		if allocs > tc.max {
			t.Errorf("decoding %d rows over %d distinct strings allocates %.0f times, want at most %.0f", rows, tc.distinct, allocs, tc.max)
		}
	}
}

func benchDecodeSBIN(b *testing.B, rows, distinct int) {
	payload, s := sbinFacts(rows, distinct)
	d := &flowfile.DataDef{Name: "facts"}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&sbinFormat{}).Decode(d, s, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSBIN60k(b *testing.B) { benchDecodeSBIN(b, 60000, 500) }

// BenchmarkDecodeSBINDict60k decodes the same shape on both sides of the
// dictionary's revert rule: 50 values (coded) and 60,000 (plain).
func BenchmarkDecodeSBINDict60k(b *testing.B) {
	for _, distinct := range []int{50, 60000} {
		b.Run("distinct="+strconv.Itoa(distinct), func(b *testing.B) { benchDecodeSBIN(b, 60000, distinct) })
	}
}
