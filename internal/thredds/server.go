// Package thredds implements the data-access substrate of the workflow's
// step 1: a THREDDS-like catalog server offering both whole-granule download
// and NetCDF Subset Service (NCSS) style variable subsetting, plus an
// aria2-like parallel download client. The server really serves NC4-lite
// bytes over HTTP (stdlib net/http) from a deterministic merra.Generator, so
// the subsetting ratio the paper exploits (455 GB -> 246 GB) is observable as
// actual byte counts at experiment scale.
package thredds

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"chaseci/internal/merra"
)

// Catalog binds an archive spec to a content generator. Granule bytes are
// rendered lazily and cached, keyed by index.
type Catalog struct {
	Spec merra.ArchiveSpec
	Gen  *merra.Generator

	levels []float64

	mu    sync.Mutex
	cache map[int][]byte
}

// NewCatalog creates a catalog over the first n granules of spec, generating
// content on g's grid.
func NewCatalog(spec merra.ArchiveSpec, gen *merra.Generator) *Catalog {
	return &Catalog{
		Spec:   spec,
		Gen:    gen,
		levels: merra.PressureLevels(gen.Grid.NLev),
		cache:  make(map[int][]byte),
	}
}

// GranuleBytes renders (and caches) the full NC4-lite encoding of granule i.
func (c *Catalog) GranuleBytes(i int) ([]byte, error) {
	if i < 0 || i >= c.Spec.NumFiles() {
		return nil, fmt.Errorf("thredds: granule %d out of range [0,%d)", i, c.Spec.NumFiles())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.cache[i]; ok {
		return b, nil
	}
	st := c.Gen.State(i)
	f := merra.StateFile(st, c.levels, c.Spec.FileTime(i).Unix())
	b := f.EncodeBytes()
	c.cache[i] = b
	return b, nil
}

// SubsetBytes renders granule i reduced to a single variable.
func (c *Catalog) SubsetBytes(i int, variable string) ([]byte, error) {
	full, err := c.GranuleBytes(i)
	if err != nil {
		return nil, err
	}
	v, err := merra.ExtractVariable(full, variable)
	if err != nil {
		return nil, err
	}
	out := &merra.File{Time: c.Spec.FileTime(i).Unix()}
	if err := out.AddVariable(v.Name, v.Dims, v.Data); err != nil {
		return nil, err
	}
	return out.EncodeBytes(), nil
}

// IndexByName resolves a granule file name to its index.
func (c *Catalog) IndexByName(name string) (int, bool) {
	// Names are strictly ordered and formulaic; linear scan is fine for the
	// experiment-scale catalogs served over HTTP.
	for i := 0; i < c.Spec.NumFiles(); i++ {
		if c.Spec.FileName(i) == name {
			return i, true
		}
	}
	return 0, false
}

// Server is the HTTP face of a catalog:
//
//	GET /thredds/catalog.json                    -> {"datasets": [names...]}
//	GET /thredds/fileServer/<name>               -> full granule bytes
//	GET /thredds/ncss/<name>?var=IVT             -> single-variable subset
type Server struct {
	Catalog *Catalog
	httpSrv *http.Server
	ln      net.Listener
}

// Serve starts the server on addr ("127.0.0.1:0" for ephemeral).
func Serve(catalog *Catalog, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Catalog: catalog, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/thredds/catalog.json", s.handleCatalog)
	mux.HandleFunc("/thredds/fileServer/", s.handleFile)
	mux.HandleFunc("/thredds/ncss/", s.handleSubset)
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)
	return s, nil
}

// Addr returns the listening host:port.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// BaseURL returns "http://host:port".
func (s *Server) BaseURL() string { return "http://" + s.Addr() }

// Close shuts the server down.
func (s *Server) Close() error { return s.httpSrv.Close() }

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	n := s.Catalog.Spec.NumFiles()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = s.Catalog.Spec.FileName(i)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"datasets": names})
}

func (s *Server) handleFile(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/thredds/fileServer/")
	i, ok := s.Catalog.IndexByName(name)
	if !ok {
		http.Error(w, "no such dataset", http.StatusNotFound)
		return
	}
	b, err := s.Catalog.GranuleBytes(i)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

func (s *Server) handleSubset(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/thredds/ncss/")
	variable := r.URL.Query().Get("var")
	if variable == "" {
		http.Error(w, "missing var parameter", http.StatusBadRequest)
		return
	}
	i, ok := s.Catalog.IndexByName(name)
	if !ok {
		http.Error(w, "no such dataset", http.StatusNotFound)
		return
	}
	b, err := s.Catalog.SubsetBytes(i, variable)
	if err == merra.ErrNoVar {
		http.Error(w, "no such variable", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

// SubsetURL returns the NCSS subset URL for a dataset and variable.
func (s *Server) SubsetURL(name, variable string) string {
	return s.BaseURL() + "/thredds/ncss/" + name + "?var=" + variable
}
