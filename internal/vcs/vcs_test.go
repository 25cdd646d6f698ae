package vcs

import (
	"strings"
	"testing"
	"time"
)

const baseFlow = `
D:
  raw: [a, b]

D.raw:
  source: raw.csv

F:
  +D.agg: D.raw | T.count

T:
  count:
    type: groupby
    groupby: [a]
`

func testClock() func() time.Time {
	t := time.Date(2015, 2, 1, 9, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Minute)
		return t
	}
}

func TestCommitLogContent(t *testing.T) {
	r := NewRepo("dash")
	r.SetClock(testClock())
	h1, err := r.Commit(DefaultBranch, "alice", "initial", []byte(baseFlow))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Commit(DefaultBranch, "alice", "tweak", []byte(baseFlow+"\n# comment\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("distinct commits share a hash")
	}
	log, err := r.Log(DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0].Hash != h2 || log[1].Hash != h1 {
		t.Fatalf("log = %v", log)
	}
	content, err := r.Content(DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(content), "# comment") {
		t.Error("content is not the latest commit")
	}
	old, err := r.ContentAt(h1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(old), "# comment") {
		t.Error("ContentAt returned wrong revision")
	}
}

func TestBranchAndCleanMerge(t *testing.T) {
	r := NewRepo("dash")
	r.SetClock(testClock())
	if _, err := r.Commit(DefaultBranch, "alice", "initial", []byte(baseFlow)); err != nil {
		t.Fatal(err)
	}
	if err := r.Branch(DefaultBranch, "bob-widgets"); err != nil {
		t.Fatal(err)
	}
	// Alice adds a task on main; Bob adds a different task on his branch.
	alice := baseFlow + `
  top:
    type: topn
    groupby: [a]
    orderby_column: [count DESC]
    limit: 5
`
	if _, err := r.Commit(DefaultBranch, "alice", "add topn", []byte(alice)); err != nil {
		t.Fatal(err)
	}
	bob := baseFlow + `
  dedupe:
    type: distinct
`
	if _, err := r.Commit("bob-widgets", "bob", "add distinct", []byte(bob)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MergeIf(DefaultBranch, "bob-widgets", "alice", nil); err != nil {
		t.Fatalf("merge: %v", err)
	}
	merged, _ := r.Content(DefaultBranch)
	text := string(merged)
	for _, want := range []string{"top:", "dedupe:", "count:"} {
		if !strings.Contains(text, want) {
			t.Errorf("merged file missing %q:\n%s", want, text)
		}
	}
	tip, _ := r.Tip(DefaultBranch)
	if len(tip.Parents) != 2 {
		t.Errorf("merge commit has %d parents", len(tip.Parents))
	}
}

func TestMergeConflict(t *testing.T) {
	r := NewRepo("dash")
	r.SetClock(testClock())
	if _, err := r.Commit(DefaultBranch, "alice", "initial", []byte(baseFlow)); err != nil {
		t.Fatal(err)
	}
	if err := r.Branch(DefaultBranch, "bob"); err != nil {
		t.Fatal(err)
	}
	// Both edit the same task differently.
	alice := strings.Replace(baseFlow, "groupby: [a]", "groupby: [b]", 1)
	bob := strings.Replace(baseFlow, "groupby: [a]", "groupby: [a, b]", 1)
	if _, err := r.Commit(DefaultBranch, "alice", "group by b", []byte(alice)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit("bob", "bob", "group by a,b", []byte(bob)); err != nil {
		t.Fatal(err)
	}
	_, err := r.MergeIf(DefaultBranch, "bob", "alice", nil)
	ce, ok := err.(*ConflictError)
	if !ok {
		t.Fatalf("expected ConflictError, got %v", err)
	}
	if len(ce.Entries) != 1 || ce.Entries[0] != "T.count" {
		t.Errorf("conflicts = %v", ce.Entries)
	}
}

func TestMergeOneSideWins(t *testing.T) {
	r := NewRepo("dash")
	r.SetClock(testClock())
	if _, err := r.Commit(DefaultBranch, "alice", "initial", []byte(baseFlow)); err != nil {
		t.Fatal(err)
	}
	if err := r.Branch(DefaultBranch, "bob"); err != nil {
		t.Fatal(err)
	}
	// Only Bob changes the task; Alice does nothing.
	bob := strings.Replace(baseFlow, "groupby: [a]", "groupby: [a, b]", 1)
	if _, err := r.Commit("bob", "bob", "group by a,b", []byte(bob)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MergeIf(DefaultBranch, "bob", "alice", nil); err != nil {
		t.Fatalf("merge: %v", err)
	}
	merged, _ := r.Content(DefaultBranch)
	if !strings.Contains(string(merged), "groupby: [a, b]") {
		t.Errorf("their change did not win:\n%s", merged)
	}
}

func TestMergeDeleteVsModifyConflicts(t *testing.T) {
	r := NewRepo("dash")
	r.SetClock(testClock())
	withExtra := baseFlow + `
  extra:
    type: distinct
`
	if _, err := r.Commit(DefaultBranch, "alice", "initial", []byte(withExtra)); err != nil {
		t.Fatal(err)
	}
	if err := r.Branch(DefaultBranch, "bob"); err != nil {
		t.Fatal(err)
	}
	// Alice deletes the extra task; Bob modifies it.
	if _, err := r.Commit(DefaultBranch, "alice", "delete extra", []byte(baseFlow)); err != nil {
		t.Fatal(err)
	}
	bobText := strings.Replace(withExtra, "type: distinct", "type: distinct\n    columns: [a]", 1)
	if _, err := r.Commit("bob", "bob", "modify extra", []byte(bobText)); err != nil {
		t.Fatal(err)
	}
	_, err := r.MergeIf(DefaultBranch, "bob", "alice", nil)
	if _, ok := err.(*ConflictError); !ok {
		t.Fatalf("expected conflict, got %v", err)
	}
}

func TestFork(t *testing.T) {
	r := NewRepo("sample_dashboard")
	r.SetClock(testClock())
	if _, err := r.Commit(DefaultBranch, "platform", "sample", []byte(baseFlow)); err != nil {
		t.Fatal(err)
	}
	fork, err := r.Fork(DefaultBranch, "team5_dashboard", "team5")
	if err != nil {
		t.Fatal(err)
	}
	if fork.Name != "team5_dashboard" {
		t.Errorf("fork name = %q", fork.Name)
	}
	content, err := fork.Content(DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != baseFlow {
		t.Error("fork content differs from source")
	}
	log, _ := fork.Log(DefaultBranch)
	if len(log) != 1 || !strings.Contains(log[0].Message, "fork of sample_dashboard") {
		t.Errorf("fork log = %v", log)
	}
}

func TestDiff(t *testing.T) {
	newText := strings.Replace(baseFlow, "groupby: [a]", "groupby: [b]", 1) + `
  extra:
    type: distinct
`
	diff, err := Diff([]byte(baseFlow), []byte(newText))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(diff, "\n")
	if !strings.Contains(joined, "~ T.count") || !strings.Contains(joined, "+ T.extra") {
		t.Errorf("diff = %v", diff)
	}
}

func TestMergeRevertCycle(t *testing.T) {
	// Observation 7's debugging strategy: "go to a stable version and
	// then incrementally add till the error resurfaced". Model it as
	// commit → break → revert-to-stable → re-add.
	r := NewRepo("dash")
	r.SetClock(testClock())
	stable, err := r.Commit(DefaultBranch, "team", "stable", []byte(baseFlow))
	if err != nil {
		t.Fatal(err)
	}
	broken := baseFlow + "\n  broken:\n    type: totally_bogus\n"
	if _, err := r.Commit(DefaultBranch, "team", "experiment", []byte(broken)); err != nil {
		t.Fatal(err)
	}
	// Revert: re-commit the stable content.
	stableContent, err := r.ContentAt(stable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(DefaultBranch, "team", "revert to stable", stableContent); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Content(DefaultBranch)
	if string(got) != baseFlow {
		t.Error("revert did not restore stable content")
	}
	log, _ := r.Log(DefaultBranch)
	if len(log) != 3 {
		t.Errorf("history length = %d, want 3", len(log))
	}
}

func TestErrorPathsAndEdgeCases(t *testing.T) {
	r := NewRepo("d")
	r.SetClock(testClock())
	if _, err := r.Tip("main"); err == nil {
		t.Error("tip of missing branch should fail")
	}
	if _, err := r.Content("main"); err == nil {
		t.Error("content of missing branch should fail")
	}
	if _, err := r.ContentAt("deadbeef"); err == nil {
		t.Error("content of missing commit should fail")
	}
	if _, err := r.Log("main"); err == nil {
		t.Error("log of missing branch should fail")
	}
	if err := r.Branch("main", "b"); err == nil {
		t.Error("branching from missing branch should fail")
	}
	if _, err := r.MergeIf("main", "b", "a", nil); err == nil {
		t.Error("merge with missing branches should fail")
	}
	if _, err := r.Fork("main", "f", "a"); err == nil {
		t.Error("fork of missing branch should fail")
	}
	// Self-merge is a no-op returning the shared tip.
	h, err := r.Commit(DefaultBranch, "a", "init", []byte(baseFlow))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Branch(DefaultBranch, "same"); err != nil {
		t.Fatal(err)
	}
	got, err := r.MergeIf(DefaultBranch, "same", "a", nil)
	if err != nil || got != h {
		t.Errorf("identical-tip merge = %q, %v; want %q", got, err, h)
	}
	// Branch listing.
	bs := r.Branches()
	if len(bs) != 2 || bs[0] != "main" || bs[1] != "same" {
		t.Errorf("branches = %v", bs)
	}
	// Commit String form.
	tip, _ := r.Tip(DefaultBranch)
	if !strings.Contains(tip.String(), "init") || !strings.Contains(tip.String(), "<a>") {
		t.Errorf("commit string = %q", tip.String())
	}
}

func TestMergeWithUnparseableSide(t *testing.T) {
	// Merge must reject rather than corrupt when a side does not parse.
	if _, err := MergeFlowFiles("d", nil, []byte("X:\n  bad\n"), []byte(baseFlow)); err == nil {
		t.Error("unparseable ours should fail")
	}
	if _, err := MergeFlowFiles("d", nil, []byte(baseFlow), []byte("X:\n  bad\n")); err == nil {
		t.Error("unparseable theirs should fail")
	}
	// No common ancestor (empty base): disjoint adds merge cleanly.
	ours := "T:\n  a:\n    type: distinct\n"
	theirs := "T:\n  b:\n    type: distinct\n"
	merged, err := MergeFlowFiles("d", nil, []byte(ours), []byte(theirs))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a:", "b:"} {
		if !strings.Contains(string(merged), want) {
			t.Errorf("merged missing %q:\n%s", want, merged)
		}
	}
}
