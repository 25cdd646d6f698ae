package persist

import (
	"fmt"
	"time"

	"shareinsights/internal/connector"
	"shareinsights/internal/schema"
	"shareinsights/internal/share"
	"shareinsights/internal/table"
	"shareinsights/internal/vcs"
)

// Record type bytes. Each component directory uses type 1 for its
// incremental entry; snapshots carry the full component state.
const recEntry byte = 1

// tableBlob serializes a table: the row data in the compact SBIN wire
// format (shared with the sbin connector) plus the column definitions
// SBIN does not carry (payload paths).
type tableBlob struct {
	Columns []colDef `json:"columns"`
	SBIN    []byte   `json:"sbin"`
}

type colDef struct {
	Name string `json:"name"`
	Path string `json:"path,omitempty"`
}

func encodeTable(t *table.Table) tableBlob {
	cols := t.Schema().Columns()
	defs := make([]colDef, len(cols))
	for i, c := range cols {
		defs[i] = colDef{Name: c.Name, Path: c.Path}
	}
	return tableBlob{Columns: defs, SBIN: connector.EncodeSBIN(t)}
}

func decodeTable(b tableBlob) (*table.Table, error) {
	cols := make([]schema.Column, len(b.Columns))
	for i, c := range b.Columns {
		cols[i] = schema.Column{Name: c.Name, Path: c.Path}
	}
	s, err := schema.New(cols...)
	if err != nil {
		return nil, fmt.Errorf("persist: decode table schema: %w", err)
	}
	t, err := connector.DecodeSBIN(b.SBIN, s)
	if err != nil {
		return nil, fmt.Errorf("persist: decode table: %w", err)
	}
	return t, nil
}

// vcsRecord journals one repository mutation.
type vcsRecord struct {
	Repo  string    `json:"repo"`
	Entry vcs.Entry `json:"entry"`
}

// vcsSnapshot is the full state of every repository.
type vcsSnapshot struct {
	Repos []*vcs.RepoState `json:"repos"`
}

// catObject serializes one published object.
type catObject struct {
	Kind      string     `json:"kind"` // share.EntryPublish or share.EntryRemove
	Name      string     `json:"name"`
	Dashboard string     `json:"dashboard,omitempty"`
	Version   int        `json:"version,omitempty"`
	UpdatedAt time.Time  `json:"updated_at,omitzero"`
	Table     *tableBlob `json:"table,omitempty"`
}

// publishOf serializes a published object — the catalog's WAL record
// and its snapshot element alike.
func publishOf(o *share.Object) catObject {
	blob := encodeTable(o.Data)
	return catObject{
		Kind: share.EntryPublish, Name: o.Name, Dashboard: o.Dashboard,
		Version: o.Version, UpdatedAt: o.UpdatedAt, Table: &blob,
	}
}

// catRecordOf serializes one catalog journal entry.
func catRecordOf(e share.Entry) (catObject, error) {
	if e.Kind != share.EntryPublish {
		return catObject{Kind: e.Kind, Name: e.Name}, nil
	}
	if e.Object == nil {
		return catObject{}, fmt.Errorf("persist: publish entry without object")
	}
	return publishOf(e.Object), nil
}

func catEntryOf(rec catObject) (share.Entry, error) {
	if rec.Kind == share.EntryRemove {
		return share.Entry{Kind: share.EntryRemove, Name: rec.Name}, nil
	}
	if rec.Table == nil {
		return share.Entry{}, fmt.Errorf("persist: catalog publish %q without table", rec.Name)
	}
	t, err := decodeTable(*rec.Table)
	if err != nil {
		return share.Entry{}, err
	}
	return share.Entry{Kind: share.EntryPublish, Object: &share.Object{
		Name:      rec.Name,
		Dashboard: rec.Dashboard,
		Schema:    t.Schema(),
		Data:      t,
		UpdatedAt: rec.UpdatedAt,
		Version:   rec.Version,
	}}, nil
}

// catSnapshot is the full catalog state.
type catSnapshot struct {
	Objects []catObject `json:"objects"`
}

// cacheRecord journals one last-good source table.
type cacheRecord struct {
	Dashboard string    `json:"dashboard"`
	Source    string    `json:"source"`
	Table     tableBlob `json:"table"`
}

// cacheSnapshot is the full last-good cache state.
type cacheSnapshot struct {
	Entries []cacheRecord `json:"entries"`
}
