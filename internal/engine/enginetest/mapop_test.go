package enginetest

import (
	"fmt"
	"testing"
	"time"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// mapOpTasks defines one task per map operator over D.src's columns
// (SEMANTICS.md §11), each writing a new column unless it is rewritten in
// place.
const mapOpTasks = `
T:
  day:
    type: map
    operator: date
    transform: posted
    input_format: 'E MMM dd HH:mm:ss Z yyyy'
    output_format: yyyy-MM-dd
    output: day
  iso:
    type: map
    operator: date
    transform: posted
    output_format: 'dd/MM/yy HH:mm'
    output: iso
  terms:
    type: map
    operator: extract
    transform: body
    dict: terms.txt
    output: term
  state:
    type: map
    operator: extract_location
    transform: loc
    country: IND
    output: state
  words:
    type: map
    operator: extract_words
    transform: body
    output: word
  tens:
    type: map
    operator: bucket
    transform: amount
    width: 10
    output: tens
  quarters:
    type: map
    operator: bucket
    transform: ratio
    width: 2.5
    output: quarters
  joined:
    type: map
    operator: concat
    transform: [amount, ratio, flag]
    separator: '-'
    output: joined
  shout:
    type: map
    operator: upper
    transform: body
  quiet:
    type: map
    operator: lower
    transform: loc
    output: quiet
  trimmed:
    type: map
    operator: trim
    transform: loc
  swapped:
    type: map
    operator: replace
    transform: body
    old: a1
    new: A-one
    output: swapped
  seven:
    type: map
    operator: constant
    value: 7
    output: seven
  keep:
    type: filter_by
    filter_expression: amount > 0
  per_day:
    type: groupby
    groupby: [day]
`

// mapOpFlow has one output per operator and chains that mix the
// operators with filters, other maps and a group-by.
const mapOpFlow = `
D:
  src: [posted, body, loc, amount, ratio, flag]

F:
  D.day: D.src | T.day
  D.iso: D.src | T.iso
  D.terms: D.src | T.terms
  D.state: D.src | T.state
  D.words: D.src | T.words
  D.tens: D.src | T.tens
  D.quarters: D.src | T.quarters
  D.joined: D.src | T.joined
  D.shout: D.src | T.shout
  D.quiet: D.src | T.quiet
  D.trimmed: D.src | T.trimmed
  D.swapped: D.src | T.swapped
  D.seven: D.src | T.seven
  D.chain: D.src | T.shout | T.keep | T.day | T.tens | T.seven | T.per_day
  D.fanned: D.src | T.day | T.terms | T.state | T.words | T.quiet
` + mapOpTasks

// mapOpSource is D.src: three rows whose cells SEMANTICS.md §11's cases
// are read off, then n more, malformed dates first.
func mapOpSource(n int) *table.Table {
	tb := table.New(schema.MustFromNames("posted", "body", "loc", "amount", "ratio", "flag"))
	tb.AppendValues(value.NewString("Mon Apr 07 02:30:00 +0530 2014"), value.NewString("A1 a1 #a1 b2 @C3 the http://t.co ab product"),
		value.NewString("East side"), value.NewInt(37), value.NewFloat(6), value.NewBool(true))
	tb.AppendValues(value.NewString("garbage"), value.NewString("nothing here"), value.NewString(" Atlantis "),
		value.VNull, value.VNull, value.NewBool(false))
	tb.AppendValues(value.NewTime(time.Date(2014, 4, 8, 9, 5, 0, 0, time.UTC)), value.NewInt(42), value.NewString("in mumbai."),
		value.NewInt(-1), value.NewFloat(2.4), value.VNull)
	for i := range n {
		posted := value.NewString(fmt.Sprintf("Tue Apr %02d 10:%02d:00 +0000 2014", 1+i%28, i%60))
		if i < 1100 {
			posted = value.NewString(fmt.Sprintf("malformed %d", i))
		}
		tb.AppendValues(posted, value.NewString(fmt.Sprintf("b2 launch %d #A1 the launch", i%5)),
			value.NewString([]string{"east", "west", "nowhere", "Mumbai"}[i%4]), value.NewInt(int64(i%40-10)),
			value.NewFloat(float64(i%9)/4), value.NewBool(i%3 == 0))
	}
	return tb
}

// TestMapOperatorsMatchReference holds every map operator, in every
// executor mode and alone or chained, to the reference (SEMANTICS.md
// §11), over three rows whose outputs it also states and 2,000 more
// whose first 1,100 dates are malformed: a first morsel of nulls and a
// second of strings.
func TestMapOperatorsMatchReference(t *testing.T) {
	sources := map[string]*table.Table{"src": mapOpSource(0)}
	ref := reference(t, buildGraph(t, mapOpFlow), sources)
	s, i, f, null := value.NewString, value.NewInt, value.NewFloat, value.VNull
	for name, want := range map[string][]value.V{
		"day":      {s("2014-04-07"), null, s("2014-04-08")},
		"iso":      {null, null, s("08/04/14 09:05")},
		"term":     {s("alpha"), s("beta"), s("gamma"), s("product")},
		"state":    {s("Bengal")},
		"word":     {s("#a1"), s("@c3"), s("product"), s("nothing")},
		"tens":     {i(30), null, i(-10)},
		"quarters": {f(5), null, f(0)},
		"joined":   {s("37-6-true"), s("--false"), s("-1-2.4-")},
		"shout":    {s("A1 A1 #A1 B2 @C3 THE HTTP://T.CO AB PRODUCT"), s("NOTHING HERE"), s("42")},
		"quiet":    {s("east side"), s(" atlantis "), s("in mumbai.")},
		"trimmed":  {s("East side"), s("Atlantis"), s("in mumbai.")},
		"swapped":  {s("A1 A-one #A-one b2 @C3 the http://t.co ab product"), s("nothing here"), s("42")},
		"seven":    {i(7), i(7), i(7)},
	} {
		node, col := name, name
		switch name {
		case "term", "word":
			node += "s"
		case "shout":
			col = "body"
		case "trimmed":
			col = "loc"
		}
		tb := ref[node]
		got := make([]value.V, tb.Len())
		for r := range got {
			got[r] = tb.At(r, tb.Schema().Index(col))
		}
		if len(got) != len(want) {
			t.Errorf("D.%s.%s: %d rows %v, want %v", node, col, len(got), got, want)
			continue
		}
		for r := range got {
			if got[r].Kind() != want[r].Kind() || got[r].String() != want[r].String() {
				t.Errorf("D.%s.%s row %d: %v (%v), want %v (%v)", node, col, r, got[r], got[r].Kind(), want[r], want[r].Kind())
			}
		}
	}
	diffFlow(t, mapOpFlow, sources)
	diffFlow(t, mapOpFlow, map[string]*table.Table{"src": mapOpSource(2000)})
}

// mapOpStreamFlow reads the upload src.<format> as D.src through the
// inline node D.mid, three map operators that keep every row, into two
// group-bys, one after a fourth.
func mapOpStreamFlow(format string) string {
	return fmt.Sprintf(`
D:
  src: [region, product, amount, ratio, flag]

D.src:
  source: data:src.%[1]s
  format: %[1]s

F:
  D.mid: D.src | T.day | T.shout | T.tens
  +D.by_day: D.mid | T.per_day
  +D.by_tag: D.mid | T.tag | T.per_tag

T:
  day:
    type: map
    operator: date
    transform: product
    input_format: 'E MMM dd HH:mm:ss Z yyyy'
    output_format: yyyy-MM-dd
    output: day
  shout:
    type: map
    operator: upper
    transform: region
  per_day:
    type: groupby
    groupby: [day, region]
  tens:
    type: map
    operator: bucket
    transform: amount
    width: 10
    output: tens
  tag:
    type: map
    operator: concat
    transform: [region, tens]
    separator: '-'
    output: tag
  per_tag:
    type: groupby
    groupby: [tag]
`, format)
}

// TestStreamedMapOperators: an upload streams through map operators that
// keep every row into group-bys, a batch at a time, and gives the
// reference's tables. Dates malformed through the first batch make its
// date column null and the next batch's a string: the stream declines,
// and the run decodes the upload whole and gives the same tables.
func TestStreamedMapOperators(t *testing.T) {
	for name, c := range map[string]struct {
		malformed int
		streams   bool
	}{"valid dates": {0, true}, "malformed first batch": {1100, false}} {
		tb := withColumn(salesTable(5000, 3, 10), "product", func(i int, _ value.V) value.V {
			if i < c.malformed {
				return value.NewString(fmt.Sprintf("malformed %d", i))
			}
			return value.NewString(fmt.Sprintf("Tue Apr %02d 10:00:00 +0530 2014", 1+i%28))
		})
		for _, format := range []string{"csv", "sbin"} {
			t.Run(name+"/"+format, func(t *testing.T) {
				src := streamRuns(t, mapOpStreamFlow(format), streamPayload(format, tb), nil)
				if want := map[bool][2]int{true: {1, 1}, false: {2, 0}}[c.streams]; src.decodes != want[0] || src.streams != want[1] {
					t.Errorf("the run decoded D.src %d times, %d of them streamed; want %d and %d", src.decodes, src.streams, want[0], want[1])
				}
			})
		}
	}
}
