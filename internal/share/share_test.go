package share

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

func sampleTable(n int) *table.Table {
	t := table.New(schema.MustFromNames("k", "v"))
	for i := 0; i < n; i++ {
		t.AppendValues(value.NewInt(int64(i)), value.NewString("x"))
	}
	return t
}

func TestPublishResolve(t *testing.T) {
	c := NewCatalog()
	clock := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	c.SetClock(func() time.Time { clock = clock.Add(time.Minute); return clock })

	obj, err := c.Publish("dash1", "players", sampleTable(3))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Version != 1 || obj.Dashboard != "dash1" {
		t.Errorf("obj = %+v", obj)
	}
	got, ok := c.Resolve("players")
	if !ok || got.Data.Len() != 3 {
		t.Fatalf("resolve failed: %v %v", got, ok)
	}
	s, ok := c.ResolveSchema("players")
	if !ok || s.String() != "[k, v]" {
		t.Errorf("schema = %v", s)
	}
	if _, ok := c.Resolve("ghost"); ok {
		t.Error("resolved a nonexistent object")
	}
	// Re-publish bumps the version.
	obj2, err := c.Publish("dash1", "players", sampleTable(5))
	if err != nil {
		t.Fatal(err)
	}
	if obj2.Version != 2 || obj2.Data.Len() != 5 {
		t.Errorf("republish = %+v", obj2)
	}
	if !obj2.UpdatedAt.After(obj.UpdatedAt) {
		t.Error("UpdatedAt did not advance")
	}
}

func TestOwnership(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Publish("dash1", "players", sampleTable(1)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Publish("dash2", "players", sampleTable(1))
	if err == nil || !strings.Contains(err.Error(), "dash1") {
		t.Errorf("cross-dashboard publish = %v", err)
	}
	if err := c.Remove("dash2", "players"); err == nil {
		t.Error("non-owner remove should fail")
	}
	if err := c.Remove("dash1", "players"); err != nil {
		t.Errorf("owner remove: %v", err)
	}
	if err := c.Remove("dash1", "players"); err == nil {
		t.Error("double remove should fail")
	}
}

func TestEmptyNameRejected(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Publish("d", "", sampleTable(1)); err == nil {
		t.Error("empty publish name should fail")
	}
}

func TestNamesSorted(t *testing.T) {
	c := NewCatalog()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.Publish("d", n, sampleTable(1)); err != nil {
			t.Fatal(err)
		}
	}
	names := c.Names()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Errorf("names = %v", names)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewCatalog()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i%4))
			for j := 0; j < 50; j++ {
				c.Publish("d", name, sampleTable(1))
				c.Resolve(name)
				c.Names()
			}
		}(i)
	}
	wg.Wait()
	if len(c.Names()) != 4 {
		t.Errorf("names = %v", c.Names())
	}
}

func TestSuggest(t *testing.T) {
	c := NewCatalog()
	mk := func(name string, cols ...string) {
		tb := table.New(schema.MustFromNames(cols...))
		if _, err := c.Publish("d", name, tb); err != nil {
			t.Fatal(err)
		}
	}
	mk("players", "player", "team", "count")
	mk("teams", "team", "color")
	mk("unrelated", "foo", "bar")

	// A pipeline working with [date, player, team] should discover both
	// players (2 shared) and teams (1 shared), players first.
	s := schema.MustFromNames("date", "player", "team")
	got := c.Suggest(s)
	if len(got) != 2 {
		t.Fatalf("suggestions = %d: %+v", len(got), got)
	}
	if got[0].Object.Name != "players" || len(got[0].SharedColumns) != 2 {
		t.Errorf("first suggestion = %v %v", got[0].Object.Name, got[0].SharedColumns)
	}
	if got[1].Object.Name != "teams" || got[1].SharedColumns[0] != "team" {
		t.Errorf("second suggestion = %v %v", got[1].Object.Name, got[1].SharedColumns)
	}
}

func TestSearch(t *testing.T) {
	c := NewCatalog()
	tb := table.New(schema.MustFromNames("player", "noOfTweets"))
	c.Publish("d", "player_tweets", tb)
	tb2 := table.New(schema.MustFromNames("region", "total"))
	c.Publish("d", "sales", tb2)

	if got := c.Search("tweet"); len(got) != 1 || got[0].Name != "player_tweets" {
		t.Errorf("Search(tweet) = %v", got)
	}
	// Column-name hits count too.
	if got := c.Search("region"); len(got) != 1 || got[0].Name != "sales" {
		t.Errorf("Search(region) = %v", got)
	}
	if got := c.Search("zzz"); len(got) != 0 {
		t.Errorf("Search(zzz) = %v", got)
	}
}

func TestCatalogLimitLRUEviction(t *testing.T) {
	c := NewCatalog()
	c.SetLimit(3)
	for _, n := range []string{"a", "b", "c"} {
		if _, err := c.Publish("dash", n, sampleTable(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" becomes the least recently used.
	c.Resolve("a")
	if _, err := c.Publish("dash", "d", sampleTable(1)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.Resolve("b"); ok {
		t.Error("LRU object b survived eviction")
	}
	for _, n := range []string{"a", "c", "d"} {
		if _, ok := c.Resolve(n); !ok {
			t.Errorf("object %s was evicted", n)
		}
	}
	// Re-publishing an existing object never triggers eviction.
	if _, err := c.Publish("dash", "a", sampleTable(2)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len after republish = %d", c.Len())
	}
}

func TestCatalogJournalAcksBeforeInstall(t *testing.T) {
	c := NewCatalog()
	var entries []Entry
	fail := false
	c.SetJournal(func(e Entry) error {
		if fail {
			return errFailedJournal
		}
		entries = append(entries, e)
		return nil
	})
	if _, err := c.Publish("dash", "ok", sampleTable(1)); err != nil {
		t.Fatal(err)
	}
	fail = true
	if _, err := c.Publish("dash", "lost", sampleTable(1)); err == nil {
		t.Fatal("publish acknowledged despite journal failure")
	}
	if _, ok := c.Resolve("lost"); ok {
		t.Error("unjournaled publish installed in memory")
	}
	fail = false
	if err := c.Remove("dash", "ok"); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Kind != EntryPublish || entries[1].Kind != EntryRemove {
		t.Fatalf("journal = %+v", entries)
	}
	// Replaying the journal into a fresh catalog reproduces the state.
	c2 := NewCatalog()
	for _, e := range entries {
		if err := c2.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if c2.Len() != 0 {
		t.Fatalf("replayed catalog has %d objects", c2.Len())
	}
}

var errFailedJournal = errors.New("journal down")
