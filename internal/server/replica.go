package server

import (
	"sort"
	"time"

	"shareinsights/internal/obs/ops"
	"shareinsights/internal/replica"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// ReplicaLagHeader carries a follower's replication lag in seconds on
// every response it serves, so clients always know how stale a read
// was (docs/REPLICATION.md).
const ReplicaLagHeader = "X-SI-Replica-Lag"

// WithFollower runs the server as a read-only replica fed by the given
// follower: dashboard reads serve the replicated state, writes answer
// 307 with the leader's URL, and reads refuse with 503 + Retry-After
// once the replication lag exceeds maxLag (0 = serve however stale).
// Mutually exclusive with WithStore.
func WithFollower(f *replica.Follower, maxLag time.Duration) Option {
	return func(s *Server) {
		s.follower = f
		s.followerMaxLag = maxLag
	}
}

// Follower exposes the attached follower (nil on leaders).
func (s *Server) Follower() *replica.Follower { return s.follower }

// replicationPanel is the follower's ops-page panel: lag, applied
// sequence, breaker state and per-component apply counters.
func (s *Server) replicationPanel() ops.Panel {
	st := s.follower.Status()
	t := table.New(opsPanelSchema)
	add := func(metric string, v int64) {
		t.AppendValues(value.NewString(metric), value.NewInt(v))
	}
	add("lag_ms", int64(s.follower.Lag().Milliseconds()))
	add("applied_seq", int64(st.AppliedSeq))
	add("breaker_state", int64(s.follower.Breaker().State()))
	names := make([]string, 0, len(st.Components))
	for n := range st.Components {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cs := st.Components[n]
		add("frames_applied_"+n, int64(cs.FramesApplied))
		add("bootstraps_"+n, int64(cs.Bootstraps))
	}
	return ops.Panel{Name: "replication", Table: t}
}
