package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// listed returns the command names a text lists, in order: every match
// of pattern, whose first group is the name.
func listed(t *testing.T, file, pattern string) (string, []string) {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(string(b), -1) {
		names = append(names, m[1])
	}
	return string(b), names
}

// TestCommandsDocumented: the command table, the package comment that
// heads main.go and the README's command list name the same commands in
// the same order, and the comment gives each its synopsis.
func TestCommandsDocumented(t *testing.T) {
	var table []string
	for _, c := range commands {
		table = append(table, c.name)
	}
	want := strings.Join(table, " ")

	src, header := listed(t, "main.go", `(?m)^//\tshareinsights (\w+)`)
	if got := strings.Join(header, " "); got != want {
		t.Errorf("package comment lists  %s\ncommand table lists    %s", got, want)
	}
	for _, c := range commands {
		if !strings.Contains(src, "//\tshareinsights "+c.synopsis) {
			t.Errorf("package comment has no line %q", "shareinsights "+c.synopsis)
		}
	}
	_, readme := listed(t, "../../README.md", `(?m)^shareinsights (\w+)`)
	if got := strings.Join(readme, " "); got != want {
		t.Errorf("README lists         %s\ncommand table lists  %s", got, want)
	}
}
