package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// The admin plane is deliberately thin JSON-over-HTTP: it manages the
// registry (load, swap, drop), exposes the stats rollup, and offers a
// text batch-predict endpoint for humans — the binary plane is the one
// with throughput SLOs.
//
//	GET    /healthz                  liveness
//	GET    /models                   model inventory
//	POST   /models/{name}            load or hot-swap: {"checkpoint": path, "data": path?}
//	DELETE /models/{name}            drop
//	POST   /models/{name}/predict    text cells in, JSON predictions out
//	GET    /stats                    metrics.ServeSnapshot as JSON
//	POST   /refresh                  run one refresh pass now
func (s *Server) adminMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
	})
	mux.HandleFunc("POST /models/{name}", s.handleLoadModel)
	mux.HandleFunc("DELETE /models/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if _, ok := s.reg.Remove(name); !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no model %q loaded", name))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
	})
	mux.HandleFunc("POST /models/{name}/predict", s.handleAdminPredict)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, s.reg.Snapshot().String())
			return
		}
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
	})
	mux.HandleFunc("POST /refresh", func(w http.ResponseWriter, r *http.Request) {
		if s.refresher == nil {
			httpError(w, http.StatusConflict, fmt.Errorf("refresh loop disabled (set -refresh-every)"))
			return
		}
		refreshed, errs := s.refresher.refreshAll()
		resp := map[string]any{"refreshed": refreshed}
		if len(errs) > 0 {
			texts := make([]string, len(errs))
			for i, e := range errs {
				texts[i] = e.Error()
			}
			resp["errors"] = texts
		}
		writeJSON(w, http.StatusOK, resp)
	})
	return mux
}

// loadRequest is the POST /models/{name} body.
type loadRequest struct {
	// Checkpoint is the solver.ckpt image path to serve.
	Checkpoint string `json:"checkpoint"`
	// Data optionally names the COO observation file the refresh loop
	// re-reads for this model.
	Data string `json:"data"`
}

func (s *Server) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req loadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if req.Checkpoint == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("request needs a %q field", "checkpoint"))
		return
	}
	m, err := LoadModel(name, req.Checkpoint, req.Data, 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	_, swapped := s.reg.Put(m)
	writeJSON(w, http.StatusOK, map[string]any{
		"model":   name,
		"swapped": swapped,
		"dims":    m.Dims(),
		"rank":    m.Rank(),
		"iter":    m.Iter,
	})
}

// handleAdminPredict reads text cells (the same format cmd/distenc's
// -predict flag accepts, through the same hardened reader) and answers
// with a JSON array of predictions.
func (s *Server) handleAdminPredict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, ok := s.reg.Get(name)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no model %q loaded", name))
		return
	}
	flat, err := ReadCells(r.Body, m.Order())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	values, err := m.PredictBatch(m.Order(), flat, nil)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if values == nil {
		values = []float64{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"model": name, "values": values})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
