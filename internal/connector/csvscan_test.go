package connector

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// fuzzSeparators are the delimiters FuzzCSVRecords draws from: the three
// the formats ship with, a common fourth, and one that is two bytes long.
var fuzzSeparators = []rune{',', '\t', ';', '|', 'é'}

// csvSentinel stands in for a white-space delimiter when encoding/csv is
// the oracle: TrimLeadingSpace would trim the delimiter itself as leading
// space, where the decoder trims only the space that is not the
// delimiter. U+001F is not white space, and one byte like a tab.
const csvSentinel = '\x1f'

// csvReader returns encoding/csv's reader configured as the decoder reads
// text: TrimLeadingSpace, any field count, and a one-byte white-space
// delimiter (other than a line end, which both refuse) rewritten to
// csvSentinel, which fields maps back in a record. Byte offsets are
// unchanged. ok is false for a text that already holds the sentinel.
func csvReader(text string, sep rune) (r *csv.Reader, fields func([]string) []string, ok bool) {
	fields = func(rec []string) []string { return rec }
	if sep < utf8.RuneSelf && sep != '\n' && sep != '\r' && unicode.IsSpace(sep) {
		if strings.ContainsRune(text, csvSentinel) {
			return nil, nil, false
		}
		delim := string(sep)
		text, sep = strings.ReplaceAll(text, delim, string(csvSentinel)), csvSentinel
		fields = func(rec []string) []string {
			for i, f := range rec {
				rec[i] = strings.ReplaceAll(f, string(csvSentinel), delim)
			}
			return rec
		}
	}
	r = csv.NewReader(strings.NewReader(text))
	r.Comma, r.FieldsPerRecord, r.TrimLeadingSpace = sep, -1, true
	return r, fields, true
}

// sameRecords reads text with csvScanner and with encoding/csv side by
// side: every record must have the same fields, and the first error the
// same text, line, column and cause. Decoding stops at the first error,
// so the comparison does too.
func sameRecords(t *testing.T, text string, sep rune) {
	t.Helper()
	want, fields, ok := csvReader(text, sep)
	if !ok {
		t.Skip("the text holds the sentinel")
	}
	got := csvScanner{src: []byte(text), comma: sep}
	for n := 1; ; n++ {
		wantRec, wantErr := want.Read()
		gotRec, gotErr := got.read()
		if wantErr != nil || gotErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("record %d of %q: error %v, encoding/csv %v", n, text, gotErr, wantErr)
			}
			var gp, wp *csv.ParseError
			if errors.As(wantErr, &wp) && (!errors.As(gotErr, &gp) || *gp != *wp) {
				t.Fatalf("record %d of %q: error %#v, encoding/csv %#v", n, text, gotErr, wantErr)
			}
			if wantErr == io.EOF && got.off != len(text) {
				t.Fatalf("%q: ended after %d of %d bytes", text, got.off, len(text))
			}
			return
		}
		gotStrs := make([]string, len(gotRec))
		for i, f := range gotRec {
			gotStrs[i] = string(f)
		}
		if wantRec = fields(wantRec); !reflect.DeepEqual(gotStrs, wantRec) {
			t.Fatalf("record %d of %q: %q, encoding/csv %q", n, text, gotStrs, wantRec)
		}
	}
}

// csvScannerCases are the shapes the port had to get right one by one:
// line ends inside and outside quotes, escapes, the text's last bytes.
var csvScannerCases = []string{
	"",
	"a,b,c\n1,2,3\n",
	"a,b,c",
	"\"a\r\nb\",c\r\n",     // CRLF inside quotes reads as \n
	"\"a\rb\",\"c\r\r\n\"", // a lone \r inside quotes stays
	"a,b\r",                // a lone trailing \r is dropped
	"a\r\r",                // only one of them
	"\r",
	"\r\n\r\n",
	"\r\r\n",
	"a,\"unterminated",
	"a,\"unterminated\n",
	"a,\"unterminated\r",
	"\"",
	"\"\"",
	"\"\"\"\"",
	"\"a\"\"b\",\"\"\"\"\n",
	"\"a\"b,c\n",
	"a\"b,c\n",
	"x\n1,\"multi\nline\nfield\"z\n",
	"  a,\t b , c\n \n\t\n  ",
	" \"quoted after space\", x\n",
	"\"a\",\n",
	",\n,",
	"a,b\n\n\n\nc\n",
	"\xff\"\xfe,\"\xfd\"\n",
	"aébéc\n\"q\"é\"r\"\n\"s\"e\n",
	"a|b;c\td\n",
	"a\tb\tc\n1\t\t3\n", // an empty field between two delimiters
	"\t\t x\t \"q\"\t\n",
}

func TestCSVScannerMatchesEncodingCSV(t *testing.T) {
	for _, text := range csvScannerCases {
		for _, sep := range fuzzSeparators {
			sameRecords(t, text, sep)
		}
	}
}

func FuzzCSVRecords(f *testing.F) {
	for _, text := range csvScannerCases {
		for i := range fuzzSeparators {
			f.Add(text, uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, text string, sep uint8) {
		sameRecords(t, text, fuzzSeparators[int(sep)%len(fuzzSeparators)])
	})
}

// TestCSVInvalidSeparator: a `separator:` encoding/csv refuses is refused
// with its message, empty payload or not.
func TestCSVInvalidSeparator(t *testing.T) {
	s := schema.MustFromNames("a", "b")
	for _, sep := range []string{"\"", "\n", "\r", "\x00", "\xff", "\ufffd"} {
		d := &flowfile.DataDef{Name: "f"}
		d.SetProp("separator", sep)
		for _, payload := range []string{"", "1,2\n"} {
			want, _, wantErr := referenceDecodeCSV(0, d, s, []byte(payload), Pushdown{})
			got, err := (&csvFormat{}).Decode(d, s, []byte(payload))
			sameDecode(t, got, want, err, wantErr)
			if err == nil || err.Error() != "csv: invalid field or comment delimiter" {
				t.Errorf("separator %q, payload %q: error %v", sep, payload, err)
			}
		}
	}
}

// allocatedBy runs f and returns the bytes it allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// forgeSBINRows rewrites an sbin payload's row count.
func forgeSBINRows(payload []byte, s *schema.Schema, nrows uint64) []byte {
	var head, count bytes.Buffer
	head.WriteString(sbinMagic)
	writeUvarint(&head, uint64(s.Len()))
	for _, n := range s.Names() {
		writeUvarint(&head, uint64(len(n)))
		head.WriteString(n)
	}
	writeUvarint(&count, nrows)
	body := payload[head.Len():]
	for body[0]&0x80 != 0 { // the honest count
		body = body[1:]
	}
	return append(append(head.Bytes(), count.Bytes()...), body[1:]...)
}

// TestDecodeReserveIsBounded: the vectors are reserved from evidence —
// rows decoded per byte consumed, a cell's minimum size — so an input
// whose beginning (or header) promises far more rows than it holds
// cannot make a decode allocate out of proportion to its size.
func TestDecodeReserveIsBounded(t *testing.T) {
	dense, csvSchema := benchCSV(2000)
	giant := append(append(append([]byte(nil), dense...), "r1,p1,\""...), bytes.Repeat([]byte("x"), 4<<20)...)
	giant = append(giant, "\",100,1\n"...)

	facts, factSchema := sbinFacts(60000, 500)
	forged := forgeSBINRows(facts, factSchema, 1<<40)

	// One int, then nothing but nulls: the cheapest cells there are (one
	// byte each) under the dearest vector (eight). Two columns, so the
	// vector the table needs is 4x the payload and doubling up to 16x.
	nulls := table.New(schema.MustFromNames("n", "z"))
	nulls.AppendValues(value.NewInt(7), value.VNull)
	nullSchema := nulls.Schema()
	sparse := forgeSBINRows(EncodeSBIN(nulls), nullSchema, 2<<20+1)
	sparse = append(sparse, make([]byte, 4<<20)...) // kind byte 0: null

	for _, tc := range []struct {
		name    string
		format  Format
		schema  *schema.Schema
		payload []byte
		rows    int // -1: the decode must fail
	}{
		{"csv: 2,000 dense rows, then one 4 MiB field", &csvFormat{}, csvSchema, giant, 2001},
		{"sbin: header claims 2^40 rows", &sbinFormat{}, factSchema, forged, -1},
		{"sbin: one int, then 4 Mi null cells", &sbinFormat{}, nullSchema, sparse, 2<<20 + 1},
	} {
		var tb *table.Table
		var err error
		got := allocatedBy(func() { tb, err = tc.format.Decode(&flowfile.DataDef{Name: "f"}, tc.schema, tc.payload) })
		if tc.rows < 0 && err == nil || tc.rows >= 0 && (err != nil || tb.Len() != tc.rows) {
			t.Fatalf("%s: table %v, err %v; want %d rows", tc.name, tb, err, tc.rows)
		}
		if limit := uint64(8 * len(tc.payload)); got > limit {
			t.Errorf("%s: decoding %d bytes allocated %d, want at most %d", tc.name, len(tc.payload), got, limit)
		}
	}
}

// TestDecodedTableRetainsItsVectorsOnly: at the benchmark's two shapes a
// sealed table keeps alive its vectors with at most a sixteenth of spare
// capacity, and nothing else — a reserve that left doubling's slack
// behind, or a coded column that pinned the decoded text, would show
// here as it would in the server's live heap.
func TestDecodedTableRetainsItsVectorsOnly(t *testing.T) {
	csvPayload, csvSchema := benchCSV(30000)
	sbinPayload, sbinSchema := sbinFacts(60000, 500)
	for _, tc := range []struct {
		name    string
		format  Format
		schema  *schema.Schema
		payload []byte
		vectors int // bytes: 4 per coded string cell, 8 per int cell
	}{
		{"csv 30k", &csvFormat{}, csvSchema, csvPayload, 30000 * (3*4 + 2*8)},
		{"sbin 60k", &sbinFormat{}, sbinSchema, sbinPayload, 60000 * (4 + 6*8)},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tb, err := tc.format.Decode(&flowfile.DataDef{Name: "f"}, tc.schema, tc.payload)
		runtime.GC()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// 64 KiB covers the dictionaries and the runtime's own churn.
		if got, limit := int(after.HeapAlloc)-int(before.HeapAlloc), tc.vectors+tc.vectors/16+64<<10; got > limit {
			t.Errorf("%s: the table keeps %d bytes alive, its vectors are %d; want at most %d", tc.name, got, tc.vectors, limit)
		}
		runtime.KeepAlive(tb)
	}
}
