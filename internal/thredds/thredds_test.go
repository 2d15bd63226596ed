package thredds

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chaseci/internal/merra"
)

var testGrid = merra.Grid{NLon: 24, NLat: 16, NLev: 6}

// FileURL returns the full-granule URL for a dataset name.
func (s *Server) FileURL(name string) string {
	return s.BaseURL() + "/thredds/fileServer/" + name
}

func newTestServer(t *testing.T, granules int) *Server {
	t.Helper()
	spec := merra.MERRA2().Slice(granules)
	cat := NewCatalog(spec, merra.NewGenerator(testGrid, 7))
	srv, err := Serve(cat, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestCatalogEndpoint(t *testing.T) {
	srv := newTestServer(t, 5)
	resp, err := http.Get(srv.BaseURL() + "/thredds/catalog.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Datasets []string `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Datasets) != 5 {
		t.Fatalf("catalog lists %d datasets, want 5", len(out.Datasets))
	}
	if !strings.HasPrefix(out.Datasets[0], "MERRA2_100.inst3_3d_asm_Np.19800101") {
		t.Fatalf("first dataset = %s", out.Datasets[0])
	}
}

func TestFullGranuleDownloadDecodes(t *testing.T) {
	srv := newTestServer(t, 2)
	name := srv.Catalog.Spec.FileName(1)
	resp, err := http.Get(srv.FileURL(name))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"QV", "U", "V", "IVT"} {
		if _, err := merra.ExtractVariable(data, name); err != nil {
			t.Fatalf("granule variable %s: %v", name, err)
		}
	}
	// The file time follows the 8-byte magic.
	if ts := int64(binary.LittleEndian.Uint64(data[8:16])); ts != srv.Catalog.Spec.FileTime(1).Unix() {
		t.Fatal("granule timestamp mismatch")
	}
}

func TestSubsetSmallerThanFull(t *testing.T) {
	srv := newTestServer(t, 1)
	name := srv.Catalog.Spec.FileName(0)

	full, _, err := fetchOne(context.Background(), http.DefaultClient, srv.FileURL(name))
	if err != nil {
		t.Fatal(err)
	}
	subset, _, err := fetchOne(context.Background(), http.DefaultClient, srv.SubsetURL(name, "IVT"))
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) >= len(full) {
		t.Fatalf("subset (%d B) not smaller than full granule (%d B)", len(subset), len(full))
	}
	for _, other := range []string{"QV", "U", "V"} {
		if _, err := merra.ExtractVariable(subset, other); err != merra.ErrNoVar {
			t.Fatalf("subset holds %s (err %v); want IVT alone", other, err)
		}
	}
	got, err := merra.ExtractVariable(subset, "IVT")
	if err != nil {
		t.Fatal(err)
	}
	// Subset payload must equal the IVT extracted from the full granule.
	want, err := merra.ExtractVariable(full, "IVT")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("subset IVT differs from full-granule IVT")
		}
	}
}

func TestSubsetMissingVariable(t *testing.T) {
	srv := newTestServer(t, 1)
	name := srv.Catalog.Spec.FileName(0)
	resp, err := http.Get(srv.SubsetURL(name, "NOPE"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %s, want 404", resp.Status)
	}
}

func TestSubsetMissingVarParam(t *testing.T) {
	srv := newTestServer(t, 1)
	name := srv.Catalog.Spec.FileName(0)
	resp, err := http.Get(srv.BaseURL() + "/thredds/ncss/" + name)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %s, want 400", resp.Status)
	}
}

func TestUnknownDataset404(t *testing.T) {
	srv := newTestServer(t, 1)
	resp, err := http.Get(srv.FileURL("nope.nc4"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %s, want 404", resp.Status)
	}
}

func TestGranuleBytesDeterministicAndCached(t *testing.T) {
	spec := merra.MERRA2().Slice(3)
	cat := NewCatalog(spec, merra.NewGenerator(testGrid, 7))
	a, err := cat.GranuleBytes(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cat.GranuleBytes(2)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("second GranuleBytes did not hit the cache")
	}
	if _, err := cat.GranuleBytes(99); err == nil {
		t.Fatal("out-of-range granule accepted")
	}
}

func TestDownloaderFetchesAll(t *testing.T) {
	srv := newTestServer(t, 12)
	var urls []string
	for i := 0; i < 12; i++ {
		urls = append(urls, srv.SubsetURL(srv.Catalog.Spec.FileName(i), "IVT"))
	}
	got := make(map[string]int)
	dl := &Downloader{Parallel: 4}
	results, total := dl.Fetch(context.Background(), urls, func(url string, body []byte) {
		got[url] = len(body)
	})
	if len(results) != 12 {
		t.Fatalf("results = %d, want 12", len(results))
	}
	var want int64
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("fetch %s: %v", r.URL, r.Err)
		}
		want += r.Bytes
	}
	if total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
	if len(got) != 12 {
		t.Fatalf("sink saw %d urls, want 12", len(got))
	}
}

func TestDownloaderReportsErrors(t *testing.T) {
	srv := newTestServer(t, 1)
	urls := []string{
		srv.SubsetURL(srv.Catalog.Spec.FileName(0), "IVT"),
		srv.FileURL("missing.nc4"),
	}
	dl := &Downloader{Parallel: 2}
	results, _ := dl.Fetch(context.Background(), urls, nil)
	if results[0].Err != nil {
		t.Fatalf("good url errored: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("404 url did not error")
	}
}

func TestDownloaderDefaultParallelism(t *testing.T) {
	srv := newTestServer(t, 3)
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, srv.FileURL(srv.Catalog.Spec.FileName(i)))
	}
	dl := &Downloader{} // default 20 streams
	results, total := dl.Fetch(context.Background(), urls, nil)
	if total <= 0 {
		t.Fatal("no bytes fetched")
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

func TestSubsetRatioApproximatesPaper(t *testing.T) {
	// On the full MERRA-2 spec the modeled subset ratio is 246/455; the
	// rendered NC4-lite files should show the same direction of savings
	// (subset strictly under half the full size for the 4-variable granule).
	srv := newTestServer(t, 1)
	name := srv.Catalog.Spec.FileName(0)
	full, _, _ := fetchOne(context.Background(), http.DefaultClient, srv.FileURL(name))
	subset, _, _ := fetchOne(context.Background(), http.DefaultClient, srv.SubsetURL(name, "IVT"))
	ratio := float64(len(subset)) / float64(len(full))
	if ratio >= 0.5 {
		t.Fatalf("subset ratio = %.2f, want < 0.5", ratio)
	}
	spec := merra.MERRA2()
	modelRatio := spec.TotalBytes(true) / spec.TotalBytes(false)
	if modelRatio < 0.5 || modelRatio > 0.6 {
		t.Fatalf("modeled ratio = %.3f, want ~0.54 (246/455)", modelRatio)
	}
}

// flakyHandler fails the first n requests per URL with the given status,
// then defers to next.
type flakyHandler struct {
	mu    sync.Mutex
	fails map[string]int
	n     int
	code  int
	next  http.Handler
	hits  map[string]int
}

func newFlaky(n, code int, next http.Handler) *flakyHandler {
	return &flakyHandler{fails: map[string]int{}, hits: map[string]int{}, n: n, code: code, next: next}
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.hits[r.URL.Path]++
	fail := f.fails[r.URL.Path] < f.n
	if fail {
		f.fails[r.URL.Path]++
	}
	f.mu.Unlock()
	if fail {
		http.Error(w, "injected flake", f.code)
		return
	}
	f.next.ServeHTTP(w, r)
}

func (f *flakyHandler) hitCount(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[path]
}

func TestDownloaderRetriesTransient(t *testing.T) {
	srv := newTestServer(t, 1)
	flaky := newFlaky(2, http.StatusServiceUnavailable, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(srv.BaseURL() + r.URL.String())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	front := httptest.NewServer(flaky)
	defer front.Close()

	name := srv.Catalog.Spec.FileName(0)
	url := front.URL + "/thredds/ncss/" + name + "?var=IVT"
	dl := &Downloader{Parallel: 1, MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	results, total := dl.Fetch(context.Background(), []string{url}, nil)
	if results[0].Err != nil {
		t.Fatalf("fetch after two 503s failed: %v", results[0].Err)
	}
	if total <= 0 {
		t.Fatal("no bytes fetched")
	}
	if got := flaky.hitCount("/thredds/ncss/" + name); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two 503s + success)", got)
	}
}

func TestDownloaderGivesUpAfterMaxAttempts(t *testing.T) {
	flaky := newFlaky(100, http.StatusInternalServerError, nil)
	front := httptest.NewServer(flaky)
	defer front.Close()
	dl := &Downloader{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	results, _ := dl.Fetch(context.Background(), []string{front.URL + "/x"}, nil)
	if results[0].Err == nil {
		t.Fatal("persistent 500 did not error")
	}
	if got := flaky.hitCount("/x"); got != 3 {
		t.Fatalf("server saw %d attempts, want exactly 3", got)
	}
}

func TestDownloaderDoesNotRetryNotFound(t *testing.T) {
	flaky := newFlaky(100, http.StatusNotFound, nil)
	front := httptest.NewServer(flaky)
	defer front.Close()
	dl := &Downloader{MaxAttempts: 5, BaseDelay: time.Millisecond}
	results, _ := dl.Fetch(context.Background(), []string{front.URL + "/gone"}, nil)
	if results[0].Err == nil {
		t.Fatal("404 did not error")
	}
	if got := flaky.hitCount("/gone"); got != 1 {
		t.Fatalf("404 was retried: %d attempts, want 1", got)
	}
}

func TestDownloaderRetryBackoffInterruptedByCancel(t *testing.T) {
	flaky := newFlaky(100, http.StatusServiceUnavailable, nil)
	front := httptest.NewServer(flaky)
	defer front.Close()
	ctx, cancel := context.WithCancel(context.Background())
	// Long backoff so cancellation must cut the sleep short.
	dl := &Downloader{MaxAttempts: 5, BaseDelay: 30 * time.Second, MaxDelay: 60 * time.Second}
	done := make(chan []Result, 1)
	go func() {
		results, _ := dl.Fetch(ctx, []string{front.URL + "/y"}, nil)
		done <- results
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and park in backoff
	cancel()
	select {
	case results := <-done:
		if results[0].Err == nil {
			t.Fatal("cancelled retry reported no error")
		}
		if !strings.Contains(results[0].Err.Error(), "retry interrupted") {
			t.Fatalf("err = %v, want retry-interrupted wrap", results[0].Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

func TestDownloaderHonorsCancellation(t *testing.T) {
	srv := newTestServer(t, 6)
	var urls []string
	for i := 0; i < 6; i++ {
		urls = append(urls, srv.SubsetURL(srv.Catalog.Spec.FileName(i), "IVT"))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dl := &Downloader{Parallel: 2}
	results, total := dl.Fetch(ctx, urls, func(url string, body []byte) {
		t.Errorf("sink called for %s after cancellation", url)
	})
	if total != 0 {
		t.Fatalf("cancelled fetch moved %d bytes", total)
	}
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("cancelled fetch of %s reported no error", r.URL)
		}
	}
}
