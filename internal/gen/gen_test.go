package gen

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"
)

func TestTweetsDeterministicAndShaped(t *testing.T) {
	a := TweetsCSV(TweetsOptions{Seed: 1, N: 2000})
	b := TweetsCSV(TweetsOptions{Seed: 1, N: 2000})
	if !bytes.Equal(a, b) {
		t.Error("same seed differs")
	}
	c := TweetsCSV(TweetsOptions{Seed: 2, N: 2000})
	if bytes.Equal(a, c) {
		t.Error("different seeds identical")
	}
	r := csv.NewReader(bytes.NewReader(a))
	r.FieldsPerRecord = -1
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2000 {
		t.Fatalf("rows = %d", len(records))
	}
	start := time.Date(2013, 5, 2, 0, 0, 0, 0, time.UTC)
	end := start.Add(26 * 24 * time.Hour)
	playerMentions := 0
	for _, rec := range records {
		if len(rec) != 3 {
			t.Fatalf("record arity %d: %v", len(rec), rec)
		}
		ts, err := time.Parse("Mon Jan 02 15:04:05 -0700 2006", rec[0])
		if err != nil {
			t.Fatalf("bad timestamp %q: %v", rec[0], err)
		}
		if ts.Before(start) || !ts.Before(end) {
			t.Fatalf("timestamp %v outside tournament window", ts)
		}
		body := strings.ToLower(rec[1])
		for _, p := range IPLPlayers {
			for _, v := range p.Variants {
				if strings.Contains(body, v) {
					playerMentions++
					break
				}
			}
		}
	}
	// ~80% of tweets mention a player.
	if playerMentions < 1200 {
		t.Errorf("player mentions = %d, want most tweets", playerMentions)
	}
}

func TestDictionariesCoverRoster(t *testing.T) {
	players := string(PlayersDict())
	for _, p := range IPLPlayers {
		if !strings.Contains(players, p.Name) {
			t.Errorf("players.txt missing %s", p.Name)
		}
	}
	teams := string(TeamsDict())
	cities := string(CitiesDict())
	for _, tm := range IPLTeams {
		if !strings.Contains(teams, tm.FullName) {
			t.Errorf("teams.csv missing %s", tm.FullName)
		}
		if !strings.Contains(cities, tm.City) {
			t.Errorf("cities missing %s", tm.City)
		}
	}
}

func TestApacheSummaryShape(t *testing.T) {
	data := SvnJiraSummaryCSV(ApacheOptions{Seed: 3})
	r := csv.NewReader(bytes.NewReader(data))
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// 20 projects x 5 years.
	if len(records) != len(ApacheProjects)*5 {
		t.Fatalf("rows = %d", len(records))
	}
	for _, rec := range records {
		if len(rec) != 7 {
			t.Fatalf("arity %d", len(rec))
		}
		if rec[1] < "2010" || rec[1] > "2014" {
			t.Fatalf("year %s out of range", rec[1])
		}
	}
	if !bytes.Equal(data, SvnJiraSummaryCSV(ApacheOptions{Seed: 3})) {
		t.Error("not deterministic")
	}
}

func TestTicketsShape(t *testing.T) {
	data := TicketsCSV(5, 300)
	r := csv.NewReader(bytes.NewReader(data))
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 300 {
		t.Fatalf("rows = %d", len(records))
	}
	urgent := 0
	for _, rec := range records {
		if len(rec) != 6 {
			t.Fatalf("arity %d", len(rec))
		}
		if strings.Contains(strings.ToLower(rec[4]), "urgent") {
			urgent++
		}
	}
	if urgent == 0 || urgent > 60 {
		t.Errorf("urgent tickets = %d, want a small minority", urgent)
	}
}

func TestLatLongParsable(t *testing.T) {
	r := csv.NewReader(bytes.NewReader(LatLongCSV()))
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 5 {
		t.Fatalf("rows = %d", len(records))
	}
	for _, rec := range records {
		if !strings.Contains(rec[1], ",") {
			t.Errorf("point %q not lat,long", rec[1])
		}
	}
}

func TestProjectMetaAndTeamPlayers(t *testing.T) {
	meta := ProjectMetaCSV()
	if !strings.Contains(string(meta), "spark") {
		t.Error("project meta missing spark")
	}
	players := TeamPlayersCSV()
	if !strings.Contains(string(players), "MS Dhoni") {
		t.Error("team players missing roster")
	}
}
