package connector

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
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
// comma / tab / `separator:` property, a path-mapped column and skipped
// columns.
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
		"a\tb\tc\n1\t\t3\n",
		"\t\t\n \t2\t\n",
		"\"x\"\"y\",\"p\nq\",id-1\n\"x\"\"y\",\"p\"\"\nq\",id-2\n",
	} {
		for _, mode := range []uint8{0, 1, 2, 4, 8, 24, 16, 5, 14, 25, 30} {
			f.Add([]byte(p), mode)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte, mode uint8) {
		sep, d, s, pd := csvFuzzCase(mode)
		want, wantRes, wantErr := referenceDecodeCSV(sep, d, s, payload, pd)
		if wantErr == errSentinel {
			t.Skip("the payload holds the sentinel")
		}
		payload = bytes.Clone(payload)
		got, gotRes, gotErr := (&csvFormat{sep: sep}).DecodePushdown(d, s, payload, pd)
		sameDecode(t, got, want, gotErr, wantErr)
		if gotErr == nil && !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("pushdown result %+v, reference %+v", gotRes, wantRes)
		}
		overwriteAndRecheck(t, payload, got, want, gotErr)
	})
}

// overwriteAndRecheck holds a decoded table to owning its bytes: with
// every byte of the payload it was decoded from overwritten, it must
// still equal the reference.
func overwriteAndRecheck(t *testing.T, payload []byte, got, want *table.Table, err error) {
	t.Helper()
	if err != nil {
		return
	}
	for i := range payload {
		payload[i] ^= 0xff
	}
	sameDecode(t, got, want, nil, nil)
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

// FuzzDecodeSBIN holds the decoder to the reference, with the schema
// columns the skip mask's bits name offered for skipping: the result is
// the reference's with those columns null, and every error (bad magic,
// truncation, an unknown kind, a skipped column the payload lacks) is the
// reference's to the byte.
func FuzzDecodeSBIN(f *testing.F) {
	whole := EncodeSBIN(sbinFixture())
	f.Add(whole, uint8(0), uint8(0))
	f.Add(whole, uint8(1), uint8(0))
	f.Add(whole, uint8(2), uint8(0))
	f.Add(whole, uint8(0), uint8(0x55))
	f.Add(whole, uint8(1), uint8(0x07))
	f.Add(whole, uint8(2), uint8(0x02))
	f.Add(whole[:len(whole)-1], uint8(0), uint8(0x7F))
	f.Add(whole[:len(whole)/2], uint8(0), uint8(0x10))
	f.Add(EncodeSBIN(table.New(schema.MustFromNames("s", "i"))), uint8(0), uint8(0))
	f.Add(EncodeSBIN(table.New(schema.MustNew())), uint8(3), uint8(0xFF))
	f.Add([]byte(sbinMagic), uint8(0), uint8(0))
	f.Add([]byte(sbinMagic+"\x01\x01s\xff\xff\xff\xff\xff\xff\xff\xff\x7f"), uint8(0), uint8(1))
	f.Add([]byte(sbinMagic+"\x00\xff\xff\xff\xff\x0f"), uint8(3), uint8(0))
	f.Add([]byte(sbinMagic+"\x01\xff\xff\x03"), uint8(0), uint8(0))
	f.Add([]byte(sbinMagic+"\x01\x01s\x02\x04\x00\x09"), uint8(0), uint8(1))
	f.Add([]byte("BOGUS"), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, mode, skip uint8) {
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
		var pd Pushdown
		for i, name := range s.Names() {
			if skip>>i&1 != 0 {
				pd.SkipColumns = append(pd.SkipColumns, name)
			}
		}
		want, wantErr := referenceDecodeSBIN(s, payload)
		if wantErr == nil {
			nulled := table.New(s)
			for _, row := range want.Rows() {
				row = slices.Clone(row)
				for i := range row {
					if skip>>i&1 != 0 {
						row[i] = value.VNull
					}
				}
				nulled.Append(row)
			}
			want = nulled
		}
		payload = bytes.Clone(payload)
		got, res, gotErr := (&sbinFormat{}).DecodePushdown(&flowfile.DataDef{Name: "f"}, s, payload, pd)
		sameDecode(t, got, want, gotErr, wantErr)
		if !slices.Equal(res.SkippedColumns, pd.SkipColumns) {
			t.Fatalf("pushdown result %+v for an offer to skip %v", res, pd.SkipColumns)
		}
		overwriteAndRecheck(t, payload, got, want, gotErr)
	})
}

// TestSBINDeclinesPredicate: an offer filters no row — it carries only a
// projection, and sbin applies it to the declared columns it names, not
// to a name the schema lacks, decoding every row.
func TestSBINDeclinesPredicate(t *testing.T) {
	src := sbinFixture()
	got, res, err := (&sbinFormat{}).DecodePushdown(&flowfile.DataDef{Name: "f"}, src.Schema(), EncodeSBIN(src),
		Pushdown{SkipColumns: []string{"i", "ghost"}})
	if err != nil || !slices.Equal(res.SkippedColumns, []string{"i"}) || got.Len() != src.Len() {
		t.Fatalf("%d rows, result %+v, err %v; want all %d rows, [i] skipped", got.Len(), res, err, src.Len())
	}
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
// fields are slices of the payload, and what is left is the vectors'
// growth and the arena's chunks — the same at 1,000 and
// 10,000 rows of the benchmark's shape, and for a column of all-distinct
// strings, whose dictionary
// entries and cells alike are copied into arena chunks. The constants
// leave room for the race detector's own allocations. In bytes, a decode
// costs its vectors and their growth: the payload is not copied. What the
// decode returns is the batch the kernels run on, so a decoded source
// reaches a group-by with no conversion at all.
func TestDecodeCSVAllocs(t *testing.T) {
	d := &flowfile.DataDef{Name: "sales"}
	decode := func(payload []byte, s *schema.Schema, pd Pushdown, rows int) (tb *table.Table, allocs float64) {
		allocs = testing.AllocsPerRun(10, func() {
			var err error
			if tb, _, err = (&csvFormat{}).DecodePushdown(d, s, payload, pd); err != nil || tb.Len() != rows {
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
		if tb, allocs = decode(payload, s, Pushdown{}, rows); allocs > 250 {
			t.Errorf("decoding %d rows allocates %.0f times, want at most 250 whatever the rows", rows, allocs)
		}
	}
	payload, s30 := benchCSV(30000)
	vectors := 30000 * (3*4 + 2*8) // 4 bytes per coded string cell, 8 per int cell
	if got, limit := allocatedBy(func() { (&csvFormat{}).Decode(d, s30, payload) }), uint64(vectors+vectors/4+64<<10); got > limit && !raceEnabled {
		t.Errorf("decoding %d bytes allocates %d bytes, want at most %d: its vectors are %d", len(payload), got, limit, vectors)
	}
	// A traced decode names its span without building the name.
	small, s64 := benchCSV(64)
	reg, tr := NewRegistry(Options{}), obs.NewTrace("load")
	decodeTraced := func(tr obs.Tracer) float64 {
		return testing.AllocsPerRun(10, func() { reg.DecodePushdown(d, s64, small, Pushdown{}, tr, 0) })
	}
	for range 100 { // so that the trace's own slices grow no more
		reg.DecodePushdown(d, s64, small, Pushdown{}, tr, 0)
	}
	if traced, untraced := decodeTraced(tr), decodeTraced(nil); traced > untraced {
		t.Errorf("a traced decode allocates %.0f objects, an untraced one %.0f", traced, untraced)
	}
	var distinct bytes.Buffer
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&distinct, "id-%d,%d\n", i, i)
	}
	if _, allocs := decode(distinct.Bytes(), schema.MustFromNames("id", "n"), Pushdown{}, 10000); allocs > 250 {
		t.Errorf("decoding 10000 distinct strings allocates %.0f times, want at most 250", allocs)
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
// nothing to decode, and a new one — a dictionary entry, or a cell of a
// column of all-distinct strings, which reverts to a plain vector — is
// copied into the builder's arena, so neither costs an object per string:
// what is left is the arena's chunks and the vectors' growth. The
// constants leave room for the race detector's own allocations.
func TestDecodeSBINAllocs(t *testing.T) {
	const rows = 10000
	d := &flowfile.DataDef{Name: "facts"}
	for _, tc := range []struct {
		distinct int
		max      float64
	}{
		{50, 250},
		{rows, 300},
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

// FuzzStreamedDecode: a csv payload decoded under a random offer, its
// rows pushed a 1,024-row batch at a time into a random group-by (a
// colstore.Stream of one fold), gives the group-by's Run over the same
// offer's whole decode, cell for cell and kind for kind, or the same
// error — unless the stream declines, as it does where a batch's column
// is of another kind than the first batch's. The payload is a template:
// its rows repeat, each time with "#" replaced by the repeat's number, so
// that a few bytes span several batches and a dictionary grows, or
// reverts, across them. The folded groups own their bytes: with the
// payload overwritten they are unchanged.
func FuzzStreamedDecode(f *testing.F) {
	for _, p := range []string{
		"",
		"r1,p#,3\nr2,p1,4.5\n",
		"a,b,c\n#,x#,web\n1,,store\n",
		"r#,#,u#\n",
		",,\n1,p,2\n",
		"1,2,3\n1,2,many#\n",
		"1,\"q#\nx\",3\n1,bare\"quote,3\n",
		"2024-01-05,#,true\n",
	} {
		for _, mode := range []uint8{0, 8, 32, 64, 96} {
			for _, fold := range []uint16{0, 1, 2, 6, 0x1f1, 0x2a4} {
				f.Add([]byte(p), mode, fold, uint8(3))
			}
		}
	}
	f.Fuzz(func(t *testing.T, tmpl []byte, mode uint8, fold uint16, repeat uint8) {
		var payload []byte
		for k := range int(repeat%8)*400 + 1 {
			if payload = append(payload, bytes.ReplaceAll(tmpl, []byte("#"), strconv.AppendInt(nil, int64(k), 10))...); len(payload) > 1<<18 {
				break
			}
		}
		sep, d, s, pd := csvFuzzCase(mode)
		spec := &task.GroupBySpec{Aggs: []task.AggSpec{{Operator: "count", OutField: "n"}}}
		for c, name := range s.Names() {
			if fold>>c&1 != 0 || c == s.Len()-1 && spec.GroupBy == nil {
				spec.GroupBy = append(spec.GroupBy, name)
			}
		}
		ops := task.Aggregates()
		spec.Aggs = append(spec.Aggs, task.AggSpec{Operator: ops[int(fold>>3)%len(ops)], ApplyOn: s.Names()[int(fold>>8)%s.Len()], OutField: "x"})
		k, _, ok := spec.BindVec(nil, task.Input{Schema: s})
		if !ok {
			t.Skip("the group-by does not bind")
		}
		format := &csvFormat{sep: sep}
		whole, _, wantErr := format.DecodePushdown(d, s, payload, pd)
		st := (&colstore.Fan{Sinks: []colstore.Kernel{k}}).Stream(nil)
		pd.Push = st.Push
		payload = bytes.Clone(payload)
		got, res, gotErr := format.DecodePushdown(d, s, payload, pd)
		if errors.Is(gotErr, colstore.ErrDeclined) {
			return
		}
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("streamed: %v, whole: %v", gotErr, wantErr)
			}
			return
		}
		if got != nil || !res.Streamed {
			t.Fatalf("a streamed decode returned a table (%v), streamed %v", got != nil, res.Streamed)
		}
		outs, _, gotErr := st.Finish()
		b, _ := colstore.FromTable(whole)
		want, wantErr := k.Run(b)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("streamed fold: %v, whole: %v", gotErr, wantErr)
			}
			return
		}
		for i := range payload {
			payload[i] ^= 0xff
		}
		g, w := outs[0].ToTable(), want.ToTable()
		if g.Len() != w.Len() {
			t.Fatalf("streamed fold has %d groups, whole %d", g.Len(), w.Len())
		}
		for r := range w.Len() {
			for c := range w.Schema().Len() {
				if x, y := g.At(r, c), w.At(r, c); x.Kind() != y.Kind() || x.String() != y.String() {
					t.Fatalf("group %d column %d: streamed %v %q, whole %v %q", r, c, x.Kind(), x.String(), y.Kind(), y.String())
				}
			}
		}
	})
}

// docFuzzCase expands the fuzzer's mode byte into the declared schema
// and properties of a JSON, JSONL or XML decode: plain columns, `=>`
// paths into nested objects or elements, no column at all; an `items`
// wrapper member and a `record_tag`.
func docFuzzCase(mode uint8) (*flowfile.DataDef, *schema.Schema) {
	d := &flowfile.DataDef{Name: "f"}
	s := schema.MustFromNames("a", "b", "c")
	switch mode & 3 {
	case 1:
		s = schema.MustNew(schema.Column{Name: "a"}, schema.Column{Name: "loc", Path: "user.loc"}, schema.Column{Name: "z", Path: "x.y.z"})
	case 2:
		s = schema.MustNew(schema.Column{Name: "loc", Path: "user.loc"}, schema.Column{Name: "a"})
	case 3:
		s = schema.MustNew()
	}
	if mode&4 != 0 {
		d.SetProp("items", "list")
	}
	if mode&8 != 0 {
		d.SetProp("record_tag", "r")
	}
	return d, s
}

// fuzzDocFormat holds format to the row-building reference decoder over
// the seeds and every docFuzzCase: the same error text, or the same
// cells of the same kinds, also once the payload is overwritten.
func fuzzDocFormat(f *testing.F, format Format, reference func(*flowfile.DataDef, *schema.Schema, []byte) (*table.Table, error), seeds ...string) {
	for _, p := range seeds {
		for _, mode := range []uint8{0, 1, 2, 3, 4, 5, 8, 9, 14} {
			f.Add([]byte(p), mode)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte, mode uint8) {
		d, s := docFuzzCase(mode)
		want, wantErr := reference(d, s, payload)
		payload = bytes.Clone(payload)
		got, gotErr := format.Decode(d, s, payload)
		sameDecode(t, got, want, gotErr, wantErr)
		overwriteAndRecheck(t, payload, got, want, gotErr)
	})
}

func FuzzDecodeJSON(f *testing.F) {
	fuzzDocFormat(f, &jsonFormat{}, func(d *flowfile.DataDef, s *schema.Schema, p []byte) (*table.Table, error) {
		return referenceDecodeJSON(false, d, s, p)
	},
		"",
		"[]",
		"null",
		"[null]",
		"[1]",
		`[{"a":1,"b":"x","c":true},{"a":2.5,"b":null,"c":"t"}]`,
		`[{"a":"1","b":{"n":1},"c":[1,"two",null]},{"a":1,"b":false}]`,
		`[{"a":1.5,"b":-0.0,"c":123456789012345678},{"a":"2024-01-05","b":1e300,"c":9007199254740993}]`,
		`[{"user":{"loc":"Pune"},"a":7,"x":{"y":{"z":"deep"}}},{"user":"flat","x":{"y":3}},{}]`,
		` {"items":[{"a":1},{"a":"x"},3,{"a":null}]} `,
		`{"list":[{"a":1}],"items":[{"a":2}],"rows":"no"}`,
		`{"results":[{"a":true},{"a":0}],"data":[{"a":9}]}`,
		`{"nothing":1}`,
		`{"data":[]}`,
		`{"items":{"a":1}}`,
		`[{"a":1},`,
		`[{"a":1e400}]`,
		`[{"a":"é\ud800"},{"a":""}]`,
	)
}

func FuzzDecodeJSONL(f *testing.F) {
	fuzzDocFormat(f, &jsonFormat{lines: true}, func(d *flowfile.DataDef, s *schema.Schema, p []byte) (*table.Table, error) {
		return referenceDecodeJSON(true, d, s, p)
	},
		"",
		"\n\n",
		`{"a":1}`+"\n"+`{"a":"x"}`+"\n",
		`{"a":1} {"b":2.5,"c":[1]}`,
		`{"a":1}`+"\n[1]\n",
		"null\n"+`{"a":1,"user":{"loc":"Pune"}}`,
		`{"a":true}`+"\n"+`{"a":2}`+"\n"+`{"a":null}`+"\n"+`{"a":"2024-01-05"}`,
		`{"items":[{"a":1}]}`,
		`{"a":1}`+"\n"+`{"a":`,
		`{"x":{"y":{"z":1.25}}}`+"\r\n"+`{"x":{"y":{"z":"s"}}}`,
	)
}

func FuzzDecodeXML(f *testing.F) {
	fuzzDocFormat(f, &xmlFormat{}, referenceDecodeXML,
		"",
		"<rows/>",
		"<rows><r><a>1</a><b>x</b><c>2024-01-05</c></r><r><a>2.5</a><b></b><c>true</c></r></rows>",
		"<root><record><user><loc>Pune</loc></user><a> 7 </a><x><y><z>2024-01-05T10:00:00Z</z></y></x></record><record><a>seven</a></record></root>",
		"<a>1</a><b>2</b>",
		"<x><r><a>1</a></r><y><r><a>two</a></r><r><a>2024-01-05 10:00:00</a></r></y></x>",
		"<rows><r><a>1</a></r></rows><r><a>3</a></r>",
		"<rows><r><a>1</r></rows>",
		`<?xml version="1.0"?><rows><r a="1"><a>&amp;</a><b><![CDATA[<c>]]></b></r></rows>`,
		"<rows><r><a>1<!-- x -->2</a><b>-0</b><c>1e999</c></r></rows>",
		"<rows><r><a>nan</a><b>inf</b><c>false</c></r><r><a>3</a><b>4</b><c>5</c></r></rows>",
	)
}
