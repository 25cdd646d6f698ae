package server

import (
	"fmt"
	"io"
	"net/http"

	"shareinsights/internal/vcs"
)

// The collaboration routes expose the §4.5.1 branch-and-merge model:
//
//	GET  /dashboards/{name}/branches                  list branches
//	POST /dashboards/{name}/branches/{branch}         create branch at main
//	GET  /dashboards/{name}/branches/{branch}         fetch branch content
//	PUT  /dashboards/{name}/branches/{branch}         commit to branch
//	POST /dashboards/{name}/merge/{branch}            merge branch into main
//	GET  /dashboards/{name}/diff/{branch}             entry-level diff vs main
//	POST /dashboards/{name}/fork/{newname}            fork into a new dashboard
func (s *Server) vcsRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /dashboards/{name}/branches", s.handleBranches)
	mux.HandleFunc("POST /dashboards/{name}/branches/{branch}", s.handleBranchCreate)
	mux.HandleFunc("GET /dashboards/{name}/branches/{branch}", s.handleBranchGet)
	mux.HandleFunc("PUT /dashboards/{name}/branches/{branch}", s.handleBranchPut)
	mux.HandleFunc("POST /dashboards/{name}/merge/{branch}", s.handleMerge)
	mux.HandleFunc("GET /dashboards/{name}/diff/{branch}", s.handleDiff)
	mux.HandleFunc("POST /dashboards/{name}/fork/{newname}", s.handleFork)
}

func (s *Server) repoOr404(w http.ResponseWriter, name string) (*vcs.Repo, bool) {
	s.mu.RLock()
	repo, ok := s.repos[name]
	s.mu.RUnlock()
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("no dashboard %q", name))
		return nil, false
	}
	return repo, true
}

func (s *Server) handleBranches(w http.ResponseWriter, r *http.Request) {
	repo, ok := s.repoOr404(w, r.PathValue("name"))
	if !ok {
		return
	}
	jsonOK(w, map[string]any{"branches": repo.Branches()})
}

func (s *Server) handleBranchCreate(w http.ResponseWriter, r *http.Request) {
	repo, ok := s.repoOr404(w, r.PathValue("name"))
	if !ok {
		return
	}
	branch := r.PathValue("branch")
	if err := repo.Branch(vcs.DefaultBranch, branch); err != nil {
		jsonError(w, http.StatusConflict, err)
		return
	}
	jsonOK(w, map[string]string{"branch": branch})
}

func (s *Server) handleBranchGet(w http.ResponseWriter, r *http.Request) {
	repo, ok := s.repoOr404(w, r.PathValue("name"))
	if !ok {
		return
	}
	content, err := repo.Content(r.PathValue("branch"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(content)
}

func (s *Server) handleBranchPut(w http.ResponseWriter, r *http.Request) {
	repo, ok := s.repoOr404(w, r.PathValue("name"))
	if !ok {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := s.checkParses(r.PathValue("name"), body); err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	branch := r.PathValue("branch")
	hash, err := repo.Commit(branch, s.author(r), "save "+branch, body)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	jsonOK(w, map[string]string{"branch": branch, "commit": hash})
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	repo, ok := s.repoOr404(w, r.PathValue("name"))
	if !ok {
		return
	}
	hash, err := repo.Merge(vcs.DefaultBranch, r.PathValue("branch"), s.author(r))
	if err != nil {
		if ce, isConflict := err.(*vcs.ConflictError); isConflict {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintf(w, `{"error":"merge conflicts","conflicts":%s}`, jsonStrings(ce.Entries))
			return
		}
		jsonError(w, http.StatusConflict, err)
		return
	}
	jsonOK(w, map[string]string{"merged": r.PathValue("branch"), "commit": hash})
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	repo, ok := s.repoOr404(w, r.PathValue("name"))
	if !ok {
		return
	}
	mainContent, err := repo.Content(vcs.DefaultBranch)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	branchContent, err := repo.Content(r.PathValue("branch"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	diff, err := vcs.Diff(mainContent, branchContent)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, err)
		return
	}
	jsonOK(w, map[string]any{"diff": diff})
}

// handleFork copies a dashboard's main branch into a new dashboard —
// the "fork to go" observation 3 workflow.
func (s *Server) handleFork(w http.ResponseWriter, r *http.Request) {
	repo, ok := s.repoOr404(w, r.PathValue("name"))
	if !ok {
		return
	}
	newName := r.PathValue("newname")
	s.mu.Lock()
	if _, exists := s.repos[newName]; exists {
		s.mu.Unlock()
		jsonError(w, http.StatusConflict, fmt.Errorf("dashboard %q already exists", newName))
		return
	}
	fork, err := repo.Fork(vcs.DefaultBranch, newName, s.author(r))
	if err != nil {
		s.mu.Unlock()
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	if s.store != nil {
		// The fork's initial commit predates its journal; adoption
		// records the full state and journals everything after.
		if err := s.store.AdoptRepo(fork); err != nil {
			s.mu.Unlock()
			jsonError(w, http.StatusInternalServerError, err)
			return
		}
	}
	s.repos[newName] = fork
	// The fork starts with the parent's uploaded data files so it runs
	// out of the box; upload maps are never mutated in place (see
	// UploadData), so the two can share one until either uploads.
	if parentData, ok := s.data[r.PathValue("name")]; ok {
		s.data[newName] = parentData
	}
	s.mu.Unlock()
	jsonOK(w, map[string]string{"fork": newName})
}

func jsonStrings(ss []string) string {
	out := "["
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%q", s)
	}
	return out + "]"
}

// Discovery routes (§6: "discovery of data-sets to enrich an existing
// data pipeline"):
//
//	GET /shared/search?q=<query>            search published objects
//	GET /dashboards/{name}/suggest          enrichment suggestions
func (s *Server) discoveryRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /shared/search", s.handleSharedSearch)
	mux.HandleFunc("GET /dashboards/{name}/suggest", s.handleSuggest)
}

func (s *Server) handleSharedSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	type hit struct {
		Name      string   `json:"name"`
		Dashboard string   `json:"dashboard"`
		Columns   []string `json:"columns"`
	}
	var out []hit
	for _, obj := range s.platform.Catalog.Search(q) {
		out = append(out, hit{Name: obj.Name, Dashboard: obj.Dashboard, Columns: obj.Schema.Names()})
	}
	jsonOK(w, map[string]any{"results": out})
}

// handleSuggest proposes published objects that share columns with the
// dashboard's data objects — candidate joins to enrich its pipeline.
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	d, err := s.liveDashboard(r.PathValue("name"))
	if err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	type suggestion struct {
		For           string   `json:"for"`
		Object        string   `json:"object"`
		Dashboard     string   `json:"dashboard"`
		SharedColumns []string `json:"shared_columns"`
	}
	var out []suggestion
	for _, name := range d.Graph.Order {
		n := d.Graph.Nodes[name]
		if n.Schema == nil {
			continue
		}
		for _, sug := range s.platform.Catalog.Suggest(n.Schema) {
			// Objects this dashboard already reads or publishes are not
			// news to its author.
			if sug.Object.Dashboard == d.Name {
				continue
			}
			out = append(out, suggestion{
				For:           "D." + name,
				Object:        sug.Object.Name,
				Dashboard:     sug.Object.Dashboard,
				SharedColumns: sug.SharedColumns,
			})
		}
	}
	jsonOK(w, map[string]any{"suggestions": out})
}
