package experiments

import (
	"fmt"
	"time"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/gen"
	"shareinsights/internal/hackathon"
)

// ablationFlow has the structure that makes the §4.1 optimization
// visible: the widget's source pipeline starts with a static group-by
// (safe to run server-side, shrinking the data) followed by an
// interaction filter and a second aggregation that must stay
// client-side. With the optimizer off, the raw event table ships to the
// interactive context and the whole chain re-runs there.
const ablationFlow = `
D:
  events: [team, phase, hour, operator, widget, success]

D.events:
  source: mem:events.csv
  format: csv

W:
  phases:
    type: List
    source: D.phase_list
    text: phase

  usage:
    type: BarChart
    source: D.events | T.count_by_op_phase | T.pick_phase | T.sum_by_operator
    x: operator
    y: uses

L:
  description: Operator usage by phase
  rows:
    - [span3: W.phases, span9: W.usage]

F:
  +D.phase_list: D.events | T.phase_groups

T:
  phase_groups:
    type: groupby
    groupby: [phase]
  count_by_op_phase:
    type: groupby
    groupby: [operator, phase]
    aggregates:
      - operator: count
        out_field: uses
  pick_phase:
    type: filter_by
    filter_by: [phase]
    filter_source: W.phases
    filter_val: [text]
  sum_by_operator:
    type: groupby
    groupby: [operator]
    aggregates:
      - operator: sum
        apply_on: uses
        out_field: uses
`

// AblationResult is the E6 measurement: bytes shipped to the interactive
// context and per-interaction latency, optimizer on vs off.
type AblationResult struct {
	// OptimizedBytes / RawBytes are TransferredBytes with the optimizer
	// on and off.
	OptimizedBytes, RawBytes int
	// OptimizedInteract / RawInteract are mean selection-change times.
	OptimizedInteract, RawInteract time.Duration
	// Agree confirms both modes produced identical widget data.
	Agree bool
}

// RunAblation executes E6 over the hackathon telemetry (a conveniently
// large, skewed event table).
func RunAblation(seed int64) (*AblationResult, error) {
	sim := simulatedEvents(seed)
	run := func(optimize bool) (*dashboard.Dashboard, error) {
		p := dashboard.NewPlatform()
		p.Optimize = optimize
		p.Connectors = connector.NewRegistry(connector.Options{
			Mem: map[string][]byte{"events.csv": sim},
		})
		f, err := flowfile.Parse("ablation", ablationFlow)
		if err != nil {
			return nil, err
		}
		d, err := p.Compile(f, nil)
		if err != nil {
			return nil, err
		}
		if err := d.Run(); err != nil {
			return nil, err
		}
		return d, nil
	}
	opt, err := run(true)
	if err != nil {
		return nil, err
	}
	raw, err := run(false)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{
		OptimizedBytes: opt.TransferredBytes,
		RawBytes:       raw.TransferredBytes,
	}
	interact := func(d *dashboard.Dashboard) (time.Duration, error) {
		const rounds = 10
		start := time.Now()
		for i := 0; i < rounds; i++ {
			phase := "practice"
			if i%2 == 1 {
				phase = "competition"
			}
			if err := d.Select("phases", phase); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / rounds, nil
	}
	if res.OptimizedInteract, err = interact(opt); err != nil {
		return nil, err
	}
	if res.RawInteract, err = interact(raw); err != nil {
		return nil, err
	}
	wOpt, _ := opt.Widget("usage")
	wRaw, _ := raw.Widget("usage")
	res.Agree = wOpt.Data.Equal(wRaw.Data)
	return res, nil
}

// String renders the E6 row.
func (r *AblationResult) String() string {
	return fmt.Sprintf(
		"client transfer: optimized %d B vs unoptimized %d B (%.1fx reduction)\n"+
			"interaction latency: optimized %v vs unoptimized %v; results agree: %t",
		r.OptimizedBytes, r.RawBytes, float64(r.RawBytes)/float64(r.OptimizedBytes),
		r.OptimizedInteract.Round(time.Microsecond), r.RawInteract.Round(time.Microsecond), r.Agree)
}

func simulatedEvents(seed int64) []byte {
	return hackathon.Simulate(hackathon.Config{Seed: seed}).EventsCSV()
}

// ---------------------------------------------------------------------
// E8: shared-data benefit (§4.5.3 benefits 3 and 4)

// SharedResult is the E8 measurement: a consumption dashboard's
// run time against published data versus recomputing the raw flows
// inline.
type SharedResult struct {
	// ProcessingTime is the one-off cost the publishing dashboard pays.
	ProcessingTime time.Duration
	// ConsumptionTime is a consumption dashboard run over the published
	// object.
	ConsumptionTime time.Duration
	// InlineTime is the same dashboard recomputing from raw tweets.
	InlineTime time.Duration
	// Agree confirms identical widget data.
	Agree bool
}

const sharedProcessingFlow = IPLProcessingFlow + `
D.players_tweets:
  publish: players_tweets
`

// playersCloud is the consumption side: a word cloud of tweets per
// player.
const playersCloud = `
W:
  players:
    type: WordCloud
    source: D.players_tweets | T.aggregate_by_player
    text: player
    size: noOfTweets

T:
  aggregate_by_player:
    type: groupby
    groupby: [player]
    aggregates:
      - operator: sum
        apply_on: count
        out_field: noOfTweets
`

const sharedConsumptionFlow = playersCloud + `
L:
  rows:
    - [span12: W.players]
`

// inlineConsumptionFlow computes the same word cloud straight from the
// raw tweets — what every dashboard pays without flow-file groups.
const inlineConsumptionFlow = IPLProcessingFlow + playersCloud

// RunShared executes E8 over n synthetic tweets.
func RunShared(seed int64, n int) (*SharedResult, error) {
	tweets := gen.TweetsCSV(gen.TweetsOptions{Seed: seed, N: n})
	resources := map[string][]byte{"players.txt": gen.PlayersDict()}
	mem := connector.Options{Mem: map[string][]byte{"tweets.csv": tweets}}
	res := &SharedResult{}

	// Publishing dashboard: pays the raw-flow cost once.
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(mem)
	pf, err := flowfile.Parse("ipl_processing", sharedProcessingFlow)
	if err != nil {
		return nil, err
	}
	proc, err := p.Compile(pf, resources)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := proc.Run(); err != nil {
		return nil, err
	}
	res.ProcessingTime = time.Since(start)

	// Consumption dashboard over the shared object.
	cf, err := flowfile.Parse("consumer", sharedConsumptionFlow)
	if err != nil {
		return nil, err
	}
	cons, err := p.Compile(cf, nil)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := cons.Run(); err != nil {
		return nil, err
	}
	res.ConsumptionTime = time.Since(start)

	// The same dashboard with the processing inlined.
	p2 := dashboard.NewPlatform()
	p2.Connectors = connector.NewRegistry(mem)
	inf, err := flowfile.Parse("inline", inlineConsumptionFlow)
	if err != nil {
		return nil, err
	}
	inline, err := p2.Compile(inf, resources)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := inline.Run(); err != nil {
		return nil, err
	}
	res.InlineTime = time.Since(start)

	wShared, _ := cons.Widget("players")
	wInline, _ := inline.Widget("players")
	res.Agree = wShared.Data.Equal(wInline.Data)
	return res, nil
}

// String renders the E8 row.
func (r *SharedResult) String() string {
	speedup := float64(r.InlineTime) / float64(r.ConsumptionTime)
	return fmt.Sprintf(
		"processing (once): %v; consumption over shared object: %v; inline recompute: %v (%.0fx feedback speedup); results agree: %t",
		r.ProcessingTime.Round(time.Millisecond), r.ConsumptionTime.Round(time.Microsecond),
		r.InlineTime.Round(time.Millisecond), speedup, r.Agree)
}
