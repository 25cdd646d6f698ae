package flowfile

import "testing"

// FuzzParse drives the parser with arbitrary bytes. The contract under
// fuzzing: never panic; when parsing succeeds, serialization must
// succeed, re-parse, and reach a canonical fixed point.
func FuzzParse(f *testing.F) {
	f.Add(iplProcessing)
	f.Add(iplConsumption)
	f.Add("D:\n  a: [x => y, z]\n")
	f.Add("F:\n  +D.o: (D.a, D.b) | T.t\n")
	f.Add("L:\n  rows:\n    - [span3: W.w]\n")
	f.Add("T:\n  t:\n    type: groupby\n    aggregates:\n      - operator: sum\n")
	f.Add("D.x:\n  source: 'a:b#c'\n")
	f.Add("- 0:") // a keyed list item is no section header (FuzzLint found the nil section)
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := Parse("fuzz", src)
		if err != nil {
			return
		}
		canon := parsed.String()
		second, err := Parse("fuzz", canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ninput: %q\ncanonical: %q", err, src, canon)
		}
		if second.String() != canon {
			t.Fatalf("canonical form is not a fixed point\ninput: %q", src)
		}
		_ = parsed.Validate(true)
	})
}
