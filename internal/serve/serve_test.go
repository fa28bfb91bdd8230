package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/fieldio"
)

// synthField builds a deterministic smooth-plus-texture field.
func synthField(name string, dims ...int) *fixedpsnr.Field {
	f := fixedpsnr.NewField(name, fixedpsnr.Float64, dims...)
	inner := 1
	for _, d := range dims[1:] {
		inner *= d
	}
	for i := range f.Data {
		r, c := i/inner, i%inner
		f.Data[i] = math.Sin(0.09*float64(r))*math.Cos(0.05*float64(c)) +
			0.2*math.Sin(0.017*float64(r)*float64(c%31))
	}
	return f
}

func sdf1Bytes(t *testing.T, f *fixedpsnr.Field) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fieldio.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(Config{
		Root:       t.TempDir(),
		CacheBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.cat.Close()
	})
	return s, ts
}

func doPut(t *testing.T, ts *httptest.Server, path string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getField(t *testing.T, ts *httptest.Server, path string) *fixedpsnr.Field {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, b)
	}
	f, err := fieldio.Read(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: decoding SDF1: %v", path, err)
	}
	return f
}

// putOK uploads f to path and fails the test unless the PUT installs it.
func putOK(t *testing.T, ts *httptest.Server, path string, f *fixedpsnr.Field) {
	t.Helper()
	resp := doPut(t, ts, path, sdf1Bytes(t, f))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT %s: %d: %s", path, resp.StatusCode, b)
	}
}

func regionPath(archive, fieldName string, off, ext []int) string {
	list := func(v []int) string {
		s := make([]string, len(v))
		for i, x := range v {
			s[i] = strconv.Itoa(x)
		}
		return strings.Join(s, ",")
	}
	return fmt.Sprintf("/v1/archives/%s/fields/%s/region?off=%s&ext=%s", archive, fieldName, list(off), list(ext))
}

// openArchive opens the on-disk archive behind a catalog name, outside
// the server, so tests compare against the reader's own decodes.
func openArchive(t *testing.T, s *Server, archive string) *fixedpsnr.ArchiveReader {
	t.Helper()
	ar, err := fixedpsnr.OpenArchiveFile(s.cat.Path(archive))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ar.Close() })
	return ar
}

func extractRegion(t *testing.T, s *Server, archive, fieldName string, off, ext []int) *fixedpsnr.Field {
	t.Helper()
	want, _, err := openArchive(t, s, archive).ExtractRegion(fieldName, off, ext)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func chunkCount(t *testing.T, s *Server, archive, fieldName string) int {
	t.Helper()
	ar := openArchive(t, s, archive)
	i, ok := ar.Index(fieldName)
	if !ok {
		t.Fatalf("%s has no field %q", archive, fieldName)
	}
	h, err := ar.Info(i)
	if err != nil {
		t.Fatal(err)
	}
	return len(h.Chunks)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestServeRoundTrip(t *testing.T) {
	s, ts := newTestServer(t)
	f := synthField("vx", 48, 40, 32)

	resp := doPut(t, ts, "/v1/archives/run1/fields/vx?psnr=70&chunkpoints=16384", sdf1Bytes(t, f))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT: %d: %s", resp.StatusCode, b)
	}
	var putRes struct {
		Ratio         float64 `json:"ratio"`
		EstimatedPSNR float64 `json:"estimated_psnr"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&putRes); err != nil {
		t.Fatal(err)
	}
	if putRes.Ratio <= 1 {
		t.Fatalf("PUT ratio = %v, want > 1", putRes.Ratio)
	}

	// Full decode hits the PSNR target.
	got := getField(t, ts, "/v1/archives/run1/fields/vx")
	if d := fixedpsnr.CompareFields(f, got); d.PSNR < 69 {
		t.Fatalf("full GET PSNR = %.1f dB, want >= 69", d.PSNR)
	}

	// A pointwise-relative field: its stream is one sz-log-lorenzo chunk.
	pw := synthField("pw", 48, 40, 32)
	resp3 := doPut(t, ts, "/v1/archives/run2/fields/pw?mode=pwrel&eb=0.001", sdf1Bytes(t, pw))
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusCreated {
		t.Fatalf("pwrel PUT: %d", resp3.StatusCode)
	}
	gotPW := getField(t, ts, "/v1/archives/run2/fields/pw")
	for i, x := range pw.Data {
		if d := math.Abs(gotPW.Data[i] - x); d > 1e-3*(1+1e-9)*math.Abs(x) {
			t.Fatalf("pwrel full GET [%d] = %v, want within 1e-3 of %v", i, gotPW.Data[i], x)
		}
	}

	// Region decodes must be byte-identical to the reader's own region
	// extraction of the on-disk archive, and a repeated region read must
	// be served from the chunk cache.
	off, ext := []int{10, 4, 8}, []int{20, 30, 16}
	for _, in := range []struct{ archive, field string }{{"run1", "vx"}, {"run2", "pw"}} {
		path := fmt.Sprintf("/v1/archives/%s/fields/%s/region?off=%d,%d,%d&ext=%d,%d,%d",
			in.archive, in.field, off[0], off[1], off[2], ext[0], ext[1], ext[2])
		region := getField(t, ts, path)
		ar, err := fixedpsnr.OpenArchiveFile(s.cat.Path(in.archive))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ar.ExtractRegion(in.field, off, ext)
		ar.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(region.Data) != len(want.Data) {
			t.Fatalf("%s: region size %d, want %d", in.field, len(region.Data), len(want.Data))
		}
		for i := range want.Data {
			if region.Data[i] != want.Data[i] {
				t.Fatalf("%s: region[%d] = %v, want %v (not byte-identical)", in.field, i, region.Data[i], want.Data[i])
			}
		}

		hits := s.CacheStats().Hits
		getField(t, ts, path)
		if st := s.CacheStats(); st.Hits == hits {
			t.Fatalf("%s: cache stats after repeat read: %+v, want a hit", in.field, st)
		}
	}

	// A constant field is stored without chunks: its region read matches
	// the reader's extraction and never touches the chunk cache.
	cf := fixedpsnr.NewField("c", fixedpsnr.Float64, 16, 8, 8)
	for i := range cf.Data {
		cf.Data[i] = 3.5
	}
	putOK(t, ts, "/v1/archives/run3/fields/c?psnr=70", cf)
	if n := chunkCount(t, s, "run3", "c"); n != 0 {
		t.Fatalf("constant field stored with %d chunks, want 0", n)
	}
	before := s.CacheStats()
	cOff, cExt := []int{2, 1, 0}, []int{5, 6, 8}
	region := getField(t, ts, regionPath("run3", "c", cOff, cExt))
	if want := extractRegion(t, s, "run3", "c", cOff, cExt); !sameBits(region.Data, want.Data) {
		t.Fatalf("constant region = %v, want %v", region.Data, want.Data)
	}
	if st := s.CacheStats(); st != before {
		t.Fatalf("constant region read moved the cache: %+v, was %+v", st, before)
	}

	// A cold region read over k chunks misses each chunk exactly once, and
	// its repeat hits each exactly once.
	putOK(t, ts, "/v1/archives/run4/fields/vx?psnr=70&chunkpoints=16384", f)
	kOff, kExt := []int{0, 4, 8}, []int{48, 30, 16}
	k := uint64(chunkCount(t, s, "run4", "vx"))
	if k < 3 {
		t.Fatalf("run4/vx has %d chunks, want >= 3", k)
	}
	st0 := s.CacheStats()
	region = getField(t, ts, regionPath("run4", "vx", kOff, kExt))
	if want := extractRegion(t, s, "run4", "vx", kOff, kExt); !sameBits(region.Data, want.Data) {
		t.Fatal("cold region read is not byte-identical to the reader's extraction")
	}
	st1 := s.CacheStats()
	if st1.Misses-st0.Misses != k || st1.Coalesced != st0.Coalesced || st1.Hits != st0.Hits {
		t.Fatalf("cold read over %d chunks: cache %+v, was %+v; want %d misses, no hits or coalesced", k, st1, st0, k)
	}
	getField(t, ts, regionPath("run4", "vx", kOff, kExt))
	if st2 := s.CacheStats(); st2.Hits-st1.Hits != k || st2.Misses != st1.Misses || st2.Coalesced != st1.Coalesced {
		t.Fatalf("repeat read over %d chunks: cache %+v, was %+v; want %d hits", k, st2, st1, k)
	}

	// Info exposes the chunk table.
	iresp, err := ts.Client().Get(ts.URL + "/v1/archives/run1/fields/vx/info")
	if err != nil {
		t.Fatal(err)
	}
	defer iresp.Body.Close()
	var info struct {
		Name   string `json:"name"`
		Dims   []int  `json:"dims"`
		Chunks []struct {
			Rows  int `json:"rows"`
			Bytes int `json:"bytes"`
		} `json:"chunks"`
	}
	if err := json.NewDecoder(iresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "vx" || len(info.Chunks) < 2 {
		t.Fatalf("info = %+v, want name vx and >= 2 chunks", info)
	}

	// Streams without a PSNR target (pwrel) or a measured chunk MSE (otc)
	// still answer /info, with those numbers as JSON null.
	putOK(t, ts, "/v1/archives/run2/fields/tx?compressor=transform&psnr=60", synthField("tx", 16, 24, 24))
	for _, name := range []string{"pw", "tx"} {
		iresp, err := ts.Client().Get(ts.URL + "/v1/archives/run2/fields/" + name + "/info")
		if err != nil {
			t.Fatal(err)
		}
		var info struct {
			Name       string   `json:"name"`
			TargetPSNR *float64 `json:"target_psnr"`
			Chunks     []struct {
				MSE *float64 `json:"mse"`
			} `json:"chunks"`
		}
		err = json.NewDecoder(iresp.Body).Decode(&info)
		iresp.Body.Close()
		if err != nil {
			t.Fatalf("%s /info (status %d): %v", name, iresp.StatusCode, err)
		}
		if info.Name != name || len(info.Chunks) == 0 || info.Chunks[0].MSE != nil {
			t.Fatalf("%s /info = %+v, want its chunks with a null mse", name, info)
		}
		if name == "pw" && info.TargetPSNR != nil {
			t.Fatalf("pw /info target_psnr = %v, want null", *info.TargetPSNR)
		}
	}

	// Second field in the same archive; listing shows both.
	resp2 := doPut(t, ts, "/v1/archives/run1/fields/vy?psnr=60", sdf1Bytes(t, synthField("vy", 32, 24, 16)))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("second PUT: %d", resp2.StatusCode)
	}
	lresp, err := ts.Client().Get(ts.URL + "/v1/archives/run1/fields")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Fields []struct{ Name string } `json:"fields"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Fields) != 2 {
		t.Fatalf("fields after second PUT: %+v, want 2", listing.Fields)
	}
}

// Replacing a field must invalidate cached chunks of the old generation:
// region reads after the PUT reflect the new data.
func TestServePutInvalidatesCache(t *testing.T) {
	_, ts := newTestServer(t)
	f1 := synthField("t", 32, 32)
	put := doPut(t, ts, "/v1/archives/a/fields/t?psnr=80", sdf1Bytes(t, f1))
	put.Body.Close()
	getField(t, ts, "/v1/archives/a/fields/t/region?off=0,0&ext=32,32") // warm the cache

	f2 := synthField("t", 32, 32)
	for i := range f2.Data {
		f2.Data[i] += 5 // shift so old and new reconstructions cannot agree
	}
	put2 := doPut(t, ts, "/v1/archives/a/fields/t?psnr=80", sdf1Bytes(t, f2))
	put2.Body.Close()
	if put2.StatusCode != http.StatusCreated {
		t.Fatalf("replace PUT: %d", put2.StatusCode)
	}
	got := getField(t, ts, "/v1/archives/a/fields/t/region?off=0,0&ext=32,32")
	mean := 0.0
	for _, v := range got.Data {
		mean += v
	}
	mean /= float64(len(got.Data))
	if mean < 4 {
		t.Fatalf("post-replace region mean = %v, want ~5 (stale cache served old generation)", mean)
	}
}

func TestServeErrors(t *testing.T) {
	_, ts := newTestServer(t)
	put := doPut(t, ts, "/v1/archives/e/fields/x?psnr=70", sdf1Bytes(t, synthField("x", 16, 16)))
	put.Body.Close()

	cases := []struct {
		method, path string
		body         []byte
		want         int
	}{
		{"GET", "/v1/archives/nope/fields/x", nil, 404},
		{"GET", "/v1/archives/e/fields/nope", nil, 404},
		{"GET", "/v1/archives/e/fields/x/region?off=0,0", nil, 400},           // ext missing
		{"GET", "/v1/archives/e/fields/x/region?off=0,0&ext=99,99", nil, 400}, // out of bounds
		{"GET", "/v1/archives/e/fields/x/region?off=a,b&ext=1,1", nil, 400},   // not integers
		{"PUT", "/v1/archives/e/fields/y?mode=bogus", sdf1Bytes(t, synthField("y", 8, 8)), 400},
		{"PUT", "/v1/archives/e/fields/y", []byte("not a field"), 400},
		// 14 bytes declaring a 512^3 float64 field: rejected before the
		// reader allocates the 1 GiB it claims.
		{"PUT", "/v1/archives/e/fields/y", append([]byte("SDF1\x01\x01p\x03"), 0x80, 0x04, 0x80, 0x04, 0x80, 0x04), 400},
		// 17 bytes declaring dims {2^31, 2^32}, whose product overflows.
		{"PUT", "/v1/archives/e/fields/y", append([]byte("SDF1\x00\x00\x02"), 0x80, 0x80, 0x80, 0x80, 0x08, 0x80, 0x80, 0x80, 0x80, 0x10), 400},
		{"PUT", "/v1/archives/..%2Fevil/fields/y", sdf1Bytes(t, synthField("y", 8, 8)), 400},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// writeJSON writes non-finite jsonNum values as null, and answers 500
// rather than an empty success when a value does not encode.
func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]any{"x": jsonNum(math.NaN()), "y": jsonNum(math.Inf(-1)), "z": jsonNum(0.25)})
	if got := strings.Join(strings.Fields(rec.Body.String()), ""); rec.Code != http.StatusCreated || got != `{"x":null,"y":null,"z":0.25}` {
		t.Fatalf("jsonNum response: %d %s", rec.Code, got)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable response: status %d, want 500", rec.Code)
	}
}

// Saturating the limiter must shed with 429 (queue full) and 503 (queue
// timeout) — and never deadlock.
func TestLimiterSheds(t *testing.T) {
	met := NewMetrics()
	lim := NewLimiter(1, 1, 50*time.Millisecond, met)
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var once sync.Once
	h := lim.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(entered.Done)
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Occupy the single slot.
	firstDone := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL)
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	entered.Wait()

	// Hammer with the slot held: exactly one request can sit in the
	// queue (it will 503 after the timeout), the rest must 429.
	var got429, got503 atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL)
			if err != nil {
				return
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				got429.Add(1)
			case http.StatusServiceUnavailable:
				got503.Add(1)
			}
		}()
	}
	wg.Wait()
	if got429.Load() == 0 {
		t.Fatal("no 429s while saturated — queue-full shedding not observed")
	}
	if got503.Load() == 0 {
		t.Fatal("no 503s while saturated — queue-timeout shedding not observed")
	}
	if met.Shed429.Load() == 0 || met.Shed503.Load() == 0 {
		t.Fatalf("shed counters = 429:%d 503:%d, want both > 0", met.Shed429.Load(), met.Shed503.Load())
	}

	// Release the handlers: the held request finishes and new ones admit.
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("held request finished with %d", code)
	}
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release request: %d, want 200", resp.StatusCode)
	}
}

func TestChunkCacheLRUAndBounds(t *testing.T) {
	c := NewChunkCache(4 * 100 * 8) // room for four 100-float slabs
	slab := func(v float64) func() ([]float64, error) {
		return func() ([]float64, error) {
			s := make([]float64, 100)
			for i := range s {
				s[i] = v
			}
			return s, nil
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := c.GetOrDecode(chunkKey{gen: 1, entry: 0, chunk: i}, slab(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > 4*100*8 {
		t.Fatalf("cache bytes %d exceed capacity %d", st.Bytes, 4*100*8)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	// Oldest two (0, 1) are evicted; 5 is resident.
	if _, err := c.GetOrDecode(chunkKey{gen: 1, chunk: 5}, func() ([]float64, error) {
		t.Fatal("decode called for resident chunk")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	decoded := false
	if _, err := c.GetOrDecode(chunkKey{gen: 1, chunk: 0}, func() ([]float64, error) {
		decoded = true
		return make([]float64, 100), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !decoded {
		t.Fatal("chunk 0 should have been evicted and re-decoded")
	}
	// A slab larger than the whole cache is returned but not retained.
	if _, err := c.GetOrDecode(chunkKey{gen: 2, chunk: 9}, func() ([]float64, error) {
		return make([]float64, 1000), nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Bytes > 4*100*8 {
		t.Fatalf("oversized slab was retained: %d bytes", st.Bytes)
	}
}

func TestChunkCacheSingleflight(t *testing.T) {
	c := NewChunkCache(1 << 20)
	var decodes atomic.Int64
	gate := make(chan struct{})
	const readers = 16
	var wg sync.WaitGroup
	results := make([][]float64, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.GetOrDecode(chunkKey{gen: 7, chunk: 3}, func() ([]float64, error) {
				decodes.Add(1)
				<-gate // hold the flight open so the others pile up
				return []float64{1, 2, 3}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = s
		}(i)
	}
	// Let the goroutines reach the cache, then open the gate.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if n := decodes.Load(); n != 1 {
		t.Fatalf("decode ran %d times for one key, want 1 (singleflight)", n)
	}
	for i, s := range results {
		if len(s) != 3 {
			t.Fatalf("reader %d got slab %v", i, s)
		}
	}
	if st := c.Stats(); st.Coalesced == 0 {
		t.Fatalf("stats = %+v, want coalesced > 0", st)
	}
}

// A decode error must not poison the cache: the key stays absent and a
// later attempt retries.
func TestChunkCacheErrorNotCached(t *testing.T) {
	c := NewChunkCache(1 << 20)
	wantErr := fmt.Errorf("payload corrupt")
	if _, err := c.GetOrDecode(chunkKey{gen: 1, chunk: 0}, func() ([]float64, error) {
		return nil, wantErr
	}); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	s, err := c.GetOrDecode(chunkKey{gen: 1, chunk: 0}, func() ([]float64, error) {
		return []float64{42}, nil
	})
	if err != nil || len(s) != 1 {
		t.Fatalf("retry after error: %v, %v", s, err)
	}
}

func TestParseSpecs(t *testing.T) {
	off, ext, err := ParseRegionSpec("0:4, 8:16,2:3")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(off) != "[0 8 2]" || fmt.Sprint(ext) != "[4 16 3]" {
		t.Fatalf("ParseRegionSpec: off=%v ext=%v", off, ext)
	}
	for _, bad := range []string{"", "4", "1:0", "-1:4", "a:b"} {
		if _, _, err := ParseRegionSpec(bad); err == nil {
			t.Errorf("ParseRegionSpec(%q): want error", bad)
		}
	}

	v, err := ParseIntList("1, 2,3")
	if err != nil || fmt.Sprint(v) != "[1 2 3]" {
		t.Fatalf("ParseIntList: %v, %v", v, err)
	}
	if _, err := ParseIntList("1,x"); err == nil {
		t.Error("ParseIntList(1,x): want error")
	}

	rt, err := ParseROISpec("0:4,8:16=psnr:90")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Mode != fixedpsnr.ModePSNR || rt.TargetPSNR != 90 || fmt.Sprint(rt.Region.Off) != "[0 8]" {
		t.Fatalf("ParseROISpec: %+v", rt)
	}
	rt, err = ParseROISpec("0:4=ratio:12.5")
	if err != nil || rt.Mode != fixedpsnr.ModeRatio || rt.TargetRatio != 12.5 {
		t.Fatalf("ParseROISpec ratio: %+v, %v", rt, err)
	}
	for _, bad := range []string{"0:4", "0:4=psnr", "0:4=watts:3", "0:4=psnr:x", "x=psnr:80"} {
		if _, err := ParseROISpec(bad); err == nil {
			t.Errorf("ParseROISpec(%q): want error", bad)
		}
	}
}

func TestParseFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		check   func(Config) error
	}{
		{
			name: "defaults",
			args: nil,
			check: func(c Config) error {
				if c.Addr != ":8080" || c.CacheBytes != 256<<20 || c.MaxInFlight != 128 {
					return fmt.Errorf("defaults: %+v", c)
				}
				return nil
			},
		},
		{
			name: "everything set",
			args: []string{
				"-addr", "127.0.0.1:9999", "-root", "/tmp/cat", "-cache-mb", "64",
				"-max-inflight", "4", "-queue-depth", "8", "-queue-timeout", "500ms",
				"-max-upload-mb", "32", "-shutdown-grace", "3s",
			},
			check: func(c Config) error {
				if c.Addr != "127.0.0.1:9999" || c.Root != "/tmp/cat" ||
					c.CacheBytes != 64<<20 || c.MaxInFlight != 4 || c.QueueDepth != 8 ||
					c.QueueTimeout != 500*time.Millisecond || c.MaxUploadBytes != 32<<20 ||
					c.ShutdownGrace != 3*time.Second {
					return fmt.Errorf("parsed: %+v", c)
				}
				return nil
			},
		},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: true},
		{name: "positional junk", args: []string{"extra"}, wantErr: true},
		{name: "bad duration", args: []string{"-queue-timeout", "fast"}, wantErr: true},
		{name: "negative cache", args: []string{"-cache-mb", "-1"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := ParseFlags("fpsz-serve", tc.args, io.Discard)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("args %v: want error, got %+v", tc.args, cfg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.check(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Run must come up, serve, and drain cleanly when its context is
// cancelled — the daemon's whole lifecycle in miniature.
func TestRunGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{Addr: "127.0.0.1:0", Root: t.TempDir(), ShutdownGrace: 2 * time.Second}
	var logbuf bytes.Buffer
	var mu sync.Mutex
	logw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logbuf.Write(p)
	})
	done := make(chan error, 1)
	go func() { done <- Run(ctx, cfg, logw) }()

	// Wait for the listener line so we know it is up.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		up := bytes.Contains(logbuf.Bytes(), []byte("listening on"))
		mu.Unlock()
		if up {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("Run exited early: %v", err)
		case <-deadline:
			t.Fatal("server never came up")
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not shut down")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
