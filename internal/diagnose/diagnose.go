// Package diagnose turns platform errors into flow-file-level
// diagnostics — the §6 commitment that "since the flow file is an
// abstraction layer, more work needs to be done to enable users to
// pin-point errors quickly (without leaking the underlying engine errors
// or debug logs)", motivated by the hackathon's observation 7 ("error
// reporting … leaked the abstraction").
//
// A Diagnostic names the flow-file entity (D./T./W. reference), its
// declaring line, the problem in the user's vocabulary, and — for the
// most common failure, a misspelled column — a did-you-mean hint
// computed against the schema in scope.
package diagnose

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"shareinsights/internal/flowfile"
)

// Diagnostic is one user-facing finding.
type Diagnostic struct {
	// Entity is the flow-file reference ("T.players_count",
	// "D.ipl_tweets", "W.bubble"), or "" when the error is global.
	Entity string
	// Line is the entity's declaring line in the flow file (0 unknown).
	Line int
	// Problem is the platform's description, stripped of engine prefixes.
	Problem string
	// Hint is an optional suggestion ("did you mean …?").
	Hint string
}

// String renders the diagnostic as the editor shows it.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Entity != "" {
		b.WriteString(d.Entity)
		if d.Line > 0 {
			fmt.Fprintf(&b, " (line %d)", d.Line)
		}
		b.WriteString(": ")
	}
	b.WriteString(d.Problem)
	if d.Hint != "" {
		b.WriteString(" — ")
		b.WriteString(d.Hint)
	}
	return b.String()
}

var (
	entityRe = regexp.MustCompile(`\b([DTW])\.([A-Za-z_][A-Za-z0-9_]*)`)
	columnRe = regexp.MustCompile(`column "([^"]+)" not found \(have ([^)]*)\)`)
	taskRe   = regexp.MustCompile(`task "([^"]+)"`)
	widgetRe = regexp.MustCompile(`widget W\.([A-Za-z_][A-Za-z0-9_]*)`)
)

// Diagnose maps an error from Compile/Run against the flow file it came
// from. Multi-problem validation errors expand into one diagnostic per
// problem.
func Diagnose(f *flowfile.File, err error) []Diagnostic {
	if err == nil {
		return nil
	}
	var out []Diagnostic
	if ve, ok := err.(*flowfile.ValidationError); ok {
		for _, p := range ve.Problems {
			d := diagnoseOne(f, p.Message)
			if p.Line > 0 {
				// The problem records the offending reference's own line
				// (flow, task or layout row), which is more precise than
				// the referenced entity's declaration.
				d.Line = p.Line
			}
			out = append(out, d)
		}
		return out
	}
	return []Diagnostic{diagnoseOne(f, err.Error())}
}

func diagnoseOne(f *flowfile.File, msg string) Diagnostic {
	d := Diagnostic{Problem: CleanMessage(msg)}
	// Attribute to the most specific entity mentioned.
	if m := widgetRe.FindStringSubmatch(msg); m != nil {
		d.Entity = "W." + m[1]
		if w, ok := f.Widgets[m[1]]; ok {
			d.Line = w.Line
		}
	} else if m := taskRe.FindStringSubmatch(msg); m != nil {
		d.Entity = "T." + m[1]
		if t, ok := f.Tasks[m[1]]; ok {
			d.Line = t.Line
		}
	} else if m := entityRe.FindStringSubmatch(msg); m != nil {
		d.Entity = m[1] + "." + m[2]
		switch m[1] {
		case "D":
			if dd, ok := f.Data[m[2]]; ok {
				d.Line = dd.Line
			}
		case "T":
			if t, ok := f.Tasks[m[2]]; ok {
				d.Line = t.Line
			}
		case "W":
			if w, ok := f.Widgets[m[2]]; ok {
				d.Line = w.Line
			}
		}
	}
	// Did-you-mean for missing columns.
	if m := columnRe.FindStringSubmatch(msg); m != nil {
		missing := m[1]
		available := strings.Split(m[2], ",")
		if hint := nearest(missing, available); hint != "" {
			d.Hint = fmt.Sprintf("did you mean %q?", hint)
		}
	}
	return d
}

// CleanMessage strips engine-internal prefixes so the user reads their
// pipeline's vocabulary, not the substrate's (lint's messages too).
func CleanMessage(msg string) string {
	for _, prefix := range []string{"batch: ", "dag: ", "connector: ", "colstore: ", "expr: ", "schema: ", "cube: ", "task: "} {
		msg = strings.ReplaceAll(msg, prefix, "")
	}
	return msg
}

// Nearest picks the closest candidate within edit distance 2 ("" when
// nothing is close). The static analyzer (internal/analyze) reuses it
// for did-you-mean hints so lint and runtime diagnostics agree.
func Nearest(target string, candidates []string) string { return nearest(target, candidates) }

// nearest picks the closest candidate within edit distance 2.
func nearest(target string, candidates []string) string {
	best := ""
	bestDist := 3
	sorted := append([]string(nil), candidates...)
	sort.Strings(sorted)
	for _, c := range sorted {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if d := editDistance(strings.ToLower(target), strings.ToLower(c)); d < bestDist {
			bestDist = d
			best = c
		}
	}
	return best
}

// editDistance is Levenshtein with unit costs.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
