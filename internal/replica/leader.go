// Package replica implements WAL-shipping replication for the persist
// store (docs/REPLICATION.md): a leader serves its committed WAL prefix
// per component over HTTP, and a follower pulls frames from a durable
// (generation, offset) cursor and applies them through the same replay
// path local crash recovery uses. The follower's state is therefore
// always equal to a leader recovery over some acknowledged prefix —
// the invariant the fault matrix in this package proves.
//
// Protocol (all under the leader's /replica/ route group):
//
//	GET /replica/status                 committed cursor per component
//	GET /replica/wal/{component}        frames from ?gen=&off= (max ?max= bytes)
//	GET /replica/bootstrap/{component}  snapshot + post-snapshot frames
//
// A WAL response carries the batch's end cursor and the leader's
// committed offset in X-SI-Replica-* headers; 410 Gone tells the
// follower its cursor predates retained state and it must re-bootstrap.
package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"shareinsights/internal/store"
	"shareinsights/internal/store/persist"
)

// Response headers framing a WAL batch.
const (
	// GenHeader is the generation the returned frames belong to.
	GenHeader = "X-SI-Replica-Gen"
	// NextOffsetHeader is the cursor offset after the returned frames.
	NextOffsetHeader = "X-SI-Replica-Next-Offset"
	// CommittedHeader is the leader's committed offset in that generation.
	CommittedHeader = "X-SI-Replica-Committed"
)

// Leader serves a persist store's WALs to followers.
type Leader struct {
	store *persist.Store
}

// NewLeader wraps a store for shipping.
func NewLeader(s *persist.Store) *Leader { return &Leader{store: s} }

// StatusBody is the GET /replica/status payload: the committed cursor
// per component — what a fully caught-up follower holds.
type StatusBody struct {
	Components map[string]store.Cursor `json:"components"`
}

// ServeStatus handles GET /replica/status.
func (l *Leader) ServeStatus(w http.ResponseWriter, r *http.Request) {
	body := StatusBody{Components: map[string]store.Cursor{}}
	for _, cs := range l.store.Status() {
		body.Components[cs.Component] = store.Cursor{Gen: cs.Generation, Offset: cs.CommittedOffset}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// ServeWAL handles GET /replica/wal/{component}?gen=&off=&max=: the
// committed frames past the cursor, as raw bytes. 410 Gone directs the
// follower to bootstrap.
func (l *Leader) ServeWAL(w http.ResponseWriter, r *http.Request) {
	d := l.store.Dir(r.PathValue("component"))
	if d == nil {
		http.Error(w, "unknown component", http.StatusNotFound)
		return
	}
	gen, err1 := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
	off, err2 := strconv.ParseInt(r.URL.Query().Get("off"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "bad cursor", http.StatusBadRequest)
		return
	}
	max := 0
	if m := r.URL.Query().Get("max"); m != "" {
		if max, err1 = strconv.Atoi(m); err1 != nil || max < 0 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
	}
	frames, next, committed, err := d.ShipFrames(store.Cursor{Gen: gen, Offset: off}, max)
	if errors.Is(err, store.ErrShipGone) {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(GenHeader, strconv.FormatUint(next.Gen, 10))
	h.Set(NextOffsetHeader, strconv.FormatInt(next.Offset, 10))
	h.Set(CommittedHeader, fmt.Sprintf("%d:%d", committed.Gen, committed.Offset))
	w.Write(frames)
}

// ServeBootstrap handles GET /replica/bootstrap/{component}: the full
// committed state (snapshot + post-snapshot frames) as JSON.
func (l *Leader) ServeBootstrap(w http.ResponseWriter, r *http.Request) {
	d := l.store.Dir(r.PathValue("component"))
	if d == nil {
		http.Error(w, "unknown component", http.StatusNotFound)
		return
	}
	b, err := d.ShipBootstrap()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(b)
}
