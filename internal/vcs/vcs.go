// Package vcs implements the branch-and-merge collaboration model of
// §4.5.1: "The ShareInsights platform leverages the collaboration model
// found in distributed version control systems … Since the entire data
// pipeline is represented as a single text file, it makes it very
// amenable to manage via a source control system. CRUD operations on
// flow files map to source commits."
//
// A Repo versions one dashboard's flow file: a content-addressed blob
// store, commits with parents, named branches, forking, diffing and a
// three-way merge that exploits the flow file's "clearly demarcated
// sections" — entries merge independently per section, so two teammates
// editing different tasks or widgets never conflict.
package vcs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Commit is one recorded flow-file revision.
type Commit struct {
	// Hash identifies the commit.
	Hash string
	// Parents are the parent commit hashes (two for merges).
	Parents []string
	// Author attributed the change.
	Author string
	// Message describes the change.
	Message string
	// Blob is the flow-file content hash.
	Blob string
	// Time is the commit timestamp.
	Time time.Time
}

// Repo versions one dashboard's flow file.
type Repo struct {
	// Name is the dashboard name.
	Name string

	mu       sync.RWMutex
	blobs    map[string][]byte
	commits  map[string]*Commit
	branches map[string]string
	now      func() time.Time
	seq      int
	journal  func(Entry) error
}

// DefaultBranch is where initial commits land.
const DefaultBranch = "main"

// NewRepo returns an empty repository.
func NewRepo(name string) *Repo {
	return &Repo{
		Name:     name,
		blobs:    map[string][]byte{},
		commits:  map[string]*Commit{},
		branches: map[string]string{},
		now:      time.Now,
	}
}

// SetClock overrides the repo clock (tests and the hackathon simulator,
// which replays competition time).
func (r *Repo) SetClock(now func() time.Time) { r.now = now }

func blobID(content []byte) string {
	h := sha256.Sum256(content)
	return hex.EncodeToString(h[:])
}

// Commit records content on a branch (created if absent) and returns the
// commit hash.
func (r *Repo) Commit(branch, author, message string, content []byte) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var parents []string
	if tip, ok := r.branches[branch]; ok {
		parents = []string{tip}
	}
	return r.commitLocked(branch, author, message, content, parents)
}

func (r *Repo) commitLocked(branch, author, message string, content []byte, parents []string) (string, error) {
	blob := blobID(content)
	seq := r.seq + 1
	c := &Commit{
		Parents: parents,
		Author:  author,
		Message: message,
		Blob:    blob,
		Time:    r.now(),
	}
	// The hash covers parents, metadata, blob and a sequence number so
	// identical content committed twice still gets distinct identity.
	h := sha256.Sum256([]byte(fmt.Sprintf("%v|%s|%s|%s|%d|%d",
		parents, author, message, blob, c.Time.UnixNano(), seq)))
	c.Hash = hex.EncodeToString(h[:])
	// Journal first: the commit exists in memory only once it is durable,
	// so a caller that sees the hash will see it again after a crash.
	if r.journal != nil {
		if err := r.journal(Entry{Kind: EntryCommit, Branch: branch, Commit: c, Content: content, Seq: seq}); err != nil {
			return "", fmt.Errorf("vcs: journal commit: %w", err)
		}
	}
	r.seq = seq
	r.blobs[blob] = append([]byte(nil), content...)
	r.commits[c.Hash] = c
	r.branches[branch] = c.Hash
	return c.Hash, nil
}

// Branch creates a new branch at another branch's tip.
func (r *Repo) Branch(from, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	tip, ok := r.branches[from]
	if !ok {
		return fmt.Errorf("vcs: no branch %q", from)
	}
	if _, exists := r.branches[name]; exists {
		return fmt.Errorf("vcs: branch %q already exists", name)
	}
	if r.journal != nil {
		if err := r.journal(Entry{Kind: EntryBranch, Branch: name, Tip: tip}); err != nil {
			return fmt.Errorf("vcs: journal branch: %w", err)
		}
	}
	r.branches[name] = tip
	return nil
}

// Branches lists branch names, sorted.
func (r *Repo) Branches() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.branches))
	for b := range r.branches {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Tip returns a branch's head commit.
func (r *Repo) Tip(branch string) (*Commit, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	tip, ok := r.branches[branch]
	if !ok {
		return nil, fmt.Errorf("vcs: no branch %q", branch)
	}
	return r.commits[tip], nil
}

// Content returns the flow-file text at a branch tip.
func (r *Repo) Content(branch string) ([]byte, error) {
	c, err := r.Tip(branch)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]byte(nil), r.blobs[c.Blob]...), nil
}

// ContentAt returns the flow-file text of a specific commit.
func (r *Repo) ContentAt(hash string) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.commits[hash]
	if !ok {
		return nil, fmt.Errorf("vcs: no commit %s", hash)
	}
	return append([]byte(nil), r.blobs[c.Blob]...), nil
}

// Log returns the first-parent history of a branch, newest first.
func (r *Repo) Log(branch string) ([]*Commit, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	tip, ok := r.branches[branch]
	if !ok {
		return nil, fmt.Errorf("vcs: no branch %q", branch)
	}
	var out []*Commit
	for cur := tip; cur != ""; {
		c := r.commits[cur]
		out = append(out, c)
		if len(c.Parents) == 0 {
			break
		}
		cur = c.Parents[0]
	}
	return out, nil
}

// Fork copies a branch tip into a new repository — how hackathon teams
// started from sample dashboards ("Teams 'forked' off existing (help or
// sample) dashboards to get started", §5.2). The fork's history starts
// at the forked content so the new team owns a clean main.
func (r *Repo) Fork(branch, newName, author string) (*Repo, error) {
	content, err := r.Content(branch)
	if err != nil {
		return nil, err
	}
	fork := NewRepo(newName)
	fork.now = r.now
	if _, err := fork.Commit(DefaultBranch, author, "fork of "+r.Name+"/"+branch, content); err != nil {
		return nil, err
	}
	return fork, nil
}

// mergeBase finds a common ancestor of two commits (BFS).
func (r *Repo) mergeBase(a, b string) string {
	seen := map[string]bool{}
	for queue := []string{a}; len(queue) > 0; {
		cur := queue[0]
		queue = queue[1:]
		if cur == "" || seen[cur] {
			continue
		}
		seen[cur] = true
		if c := r.commits[cur]; c != nil {
			queue = append(queue, c.Parents...)
		}
	}
	for queue := []string{b}; len(queue) > 0; {
		cur := queue[0]
		queue = queue[1:]
		if cur == "" {
			continue
		}
		if seen[cur] {
			return cur
		}
		if c := r.commits[cur]; c != nil {
			queue = append(queue, c.Parents...)
		}
	}
	return ""
}

// Merge merges src into dst using the section-aware three-way merge and
// commits the result on dst with both parents. On conflicts it returns a
// *ConflictError listing every conflicting section entry.
func (r *Repo) Merge(dst, src, author string) (string, error) {
	return r.MergeIf(dst, src, author, nil)
}

// MergeIf is Merge with a veto: accept, when not nil, sees the merged
// text before it is committed, and its error aborts the merge with dst
// untouched.
func (r *Repo) MergeIf(dst, src, author string, accept func(merged []byte) error) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dstTip, ok := r.branches[dst]
	if !ok {
		return "", fmt.Errorf("vcs: no branch %q", dst)
	}
	srcTip, ok := r.branches[src]
	if !ok {
		return "", fmt.Errorf("vcs: no branch %q", src)
	}
	if dstTip == srcTip {
		return dstTip, nil
	}
	base := r.mergeBase(dstTip, srcTip)
	var baseContent []byte
	if base != "" {
		baseContent = r.blobs[r.commits[base].Blob]
	}
	merged, err := MergeFlowFiles(r.Name,
		baseContent,
		r.blobs[r.commits[dstTip].Blob],
		r.blobs[r.commits[srcTip].Blob])
	if err == nil && accept != nil {
		err = accept(merged)
	}
	if err != nil {
		return "", err
	}
	return r.commitLocked(dst, author, fmt.Sprintf("merge %s into %s", src, dst), merged,
		[]string{dstTip, srcTip})
}

// Diff summarizes the entry-level changes between two flow-file texts:
// one line per added (+), removed (-) or modified (~) section entry.
func Diff(oldText, newText []byte) ([]string, error) {
	oldEntries, err := entriesOf("old", oldText)
	if err != nil {
		return nil, err
	}
	newEntries, err := entriesOf("new", newText)
	if err != nil {
		return nil, err
	}
	keys := map[string]bool{}
	for k := range oldEntries {
		keys[k] = true
	}
	for k := range newEntries {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var out []string
	for _, k := range sorted {
		o, hadOld := oldEntries[k]
		n, hadNew := newEntries[k]
		switch {
		case !hadOld:
			out = append(out, "+ "+k)
		case !hadNew:
			out = append(out, "- "+k)
		case o != n:
			out = append(out, "~ "+k)
		}
	}
	return out, nil
}

// String renders a commit line.
func (c *Commit) String() string {
	return fmt.Sprintf("%s %s <%s> %s", c.Hash[:10], c.Time.Format("2006-01-02 15:04"), c.Author, strings.Split(c.Message, "\n")[0])
}
