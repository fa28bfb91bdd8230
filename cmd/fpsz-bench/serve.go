package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/datagen"
	"fixedpsnr/internal/fieldio"
	"fixedpsnr/internal/serve"
)

// ServeRecord is the archive-service load-test datapoint: many
// concurrent readers issuing zipfian ROI requests against an in-process
// fpsz-serve instance, every response byte-compared against the reader's
// own region extraction.
type ServeRecord struct {
	Name              string  `json:"name"`
	Dims              []int   `json:"dims"`
	Fields            int     `json:"fields"`
	UncompressedBytes int64   `json:"uncompressed_bytes"`
	ArchiveBytes      int64   `json:"archive_bytes"`
	Readers           int     `json:"readers"`
	Requests          int     `json:"requests"`
	DistinctQueries   int     `json:"distinct_queries"`
	ZipfS             float64 `json:"zipf_s"`
	CacheMB           int64   `json:"cache_mb"`

	FailedRequests int    `json:"failed_requests"`
	MismatchedByte int    `json:"mismatched_responses"`
	Shed429        uint64 `json:"shed_429"`
	Shed503        uint64 `json:"shed_503"`

	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MeanMs        float64 `json:"mean_ms"`
	ReqPerSec     float64 `json:"req_per_sec"`
	MBPerSec      float64 `json:"mb_per_sec"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	WallSeconds   float64 `json:"wall_seconds"`
}

// serveQuery is one precomputed ROI request with its expected answer.
type serveQuery struct {
	url  string
	want []float64
}

// buildServeArchive synthesizes nFields fields of the given dims,
// compresses each (fixed absolute bound: single-pass, so archive build
// time stays linear), and writes them into one .fpsa in dir.
func buildServeArchive(dir string, dims []int, nFields int) (archivePath string, uncompressed, archiveBytes int64, err error) {
	archivePath = filepath.Join(dir, "bench"+".fpsa")
	f, err := os.Create(archivePath)
	if err != nil {
		return "", 0, 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	aw, err := fixedpsnr.NewArchiveWriter(bw)
	if err != nil {
		return "", 0, 0, err
	}
	enc, err := fixedpsnr.NewEncoder(
		fixedpsnr.WithMode(fixedpsnr.ModeAbs),
		fixedpsnr.WithErrorBound(1e-3),
	)
	if err != nil {
		return "", 0, 0, err
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	fld := fixedpsnr.NewField("", fixedpsnr.Float64, dims...)
	for fi := 0; fi < nFields; fi++ {
		fld.Name = fmt.Sprintf("field%03d", fi)
		scale := 1 + 0.05*float64(fi)
		datagen.ChunkBench(fld.Data, 0, dims)
		for i := range fld.Data {
			fld.Data[i] *= scale
		}
		blob, _, err := enc.Encode(context.Background(), fld)
		if err != nil {
			return "", 0, 0, err
		}
		if err := aw.WriteStream(blob); err != nil {
			return "", 0, 0, err
		}
		uncompressed += int64(n * 8)
	}
	if err := aw.Close(); err != nil {
		return "", 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		return "", 0, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return "", 0, 0, err
	}
	return archivePath, uncompressed, st.Size(), nil
}

// buildServeQueries draws nQueries deterministic ROI requests across the
// archive's fields and precomputes each expected answer with the
// reader's own extraction — the ground truth the responses must match
// byte for byte.
func buildServeQueries(archivePath, baseURL string, dims []int, nFields, nQueries int) ([]serveQuery, error) {
	ar, err := fixedpsnr.OpenArchiveFile(archivePath)
	if err != nil {
		return nil, err
	}
	defer ar.Close()
	rng := rand.New(rand.NewPCG(42, 7))
	queries := make([]serveQuery, nQueries)
	for qi := range queries {
		fi := rng.IntN(nFields)
		off := make([]int, len(dims))
		ext := make([]int, len(dims))
		for d, dim := range dims {
			e := 1 + rng.IntN(dim/2)
			if d == 0 && e > 32 {
				e = 32 // cap the row span so one query reads a few chunks, not the world
			}
			o := rng.IntN(dim - e + 1)
			off[d], ext[d] = o, e
		}
		want, _, err := ar.ExtractRegionAt(fi, off, ext)
		if err != nil {
			return nil, fmt.Errorf("query %d (field %d off %v ext %v): %w", qi, fi, off, ext, err)
		}
		url := fmt.Sprintf("%s/v1/archives/bench/fields/field%03d/region?off=%s&ext=%s",
			baseURL, fi, intsCSV(off), intsCSV(ext))
		queries[qi] = serveQuery{url: url, want: want.Data}
	}
	return queries, nil
}

func intsCSV(v []int) string {
	out := ""
	for i, x := range v {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(x)
	}
	return out
}

// serveRecord builds the archive, starts an in-process server, and runs
// the concurrent zipfian ROI load.
func serveRecord(dimsArg string, nFields, readers, requests, nQueries int, zipfS float64, cacheMB int64) (ServeRecord, error) {
	var rec ServeRecord
	dims, err := parseDims(dimsArg, 3)
	if err != nil {
		return rec, err
	}
	dir, err := os.MkdirTemp("", "fpsz-serve-bench")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	archivePath, uncompressed, archiveBytes, err := buildServeArchive(dir, dims, nFields)
	if err != nil {
		return rec, fmt.Errorf("building archive: %w", err)
	}
	fmt.Fprintf(os.Stderr, "serve bench: archive %s: %d fields, %.1f MB raw -> %.1f MB in %.1fs\n",
		filepath.Base(archivePath), nFields, float64(uncompressed)/(1<<20), float64(archiveBytes)/(1<<20),
		time.Since(t0).Seconds())

	srv, err := serve.NewServer(serve.Config{
		Root:        dir,
		CacheBytes:  cacheMB << 20,
		MaxInFlight: 64,
		// Deep queue + generous timeout: the identity phase must never
		// shed, so every response can be byte-checked.
		QueueDepth:   2 * readers,
		QueueTimeout: 5 * time.Minute,
	})
	if err != nil {
		return rec, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rec, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	baseURL := "http://" + ln.Addr().String()

	queries, err := buildServeQueries(archivePath, baseURL, dims, nFields, nQueries)
	if err != nil {
		return rec, fmt.Errorf("precomputing queries: %w", err)
	}

	tr := &http.Transport{
		MaxIdleConns:        readers + 16,
		MaxIdleConnsPerHost: readers + 16,
	}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	perReader := requests / readers
	if perReader == 0 {
		perReader = 1
	}
	latencies := make([][]time.Duration, readers)
	var failed, mismatched, respBytes atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 0xbeef))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(queries)-1))
			lats := make([]time.Duration, 0, perReader)
			for i := 0; i < perReader; i++ {
				q := queries[zipf.Uint64()]
				reqStart := time.Now()
				resp, err := client.Get(q.url)
				if err != nil {
					failed.Add(1)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				lats = append(lats, time.Since(reqStart))
				if rerr != nil || resp.StatusCode != http.StatusOK {
					failed.Add(1)
					continue
				}
				respBytes.Add(int64(len(body)))
				got, err := fieldio.Read(bytes.NewReader(body))
				if err != nil || !equalFloats(got.Data, q.want) {
					mismatched.Add(1)
				}
			}
			latencies[g] = lats
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Millisecond)
	}
	mean := time.Duration(0)
	for _, d := range all {
		mean += d
	}
	if len(all) > 0 {
		mean /= time.Duration(len(all))
	}

	st := srv.CacheStats()
	met := srv.Metrics()
	rec = ServeRecord{
		Name: "serve-zipf-roi", Dims: dims, Fields: nFields,
		UncompressedBytes: uncompressed, ArchiveBytes: archiveBytes,
		Readers: readers, Requests: len(all) + int(failed.Load()),
		DistinctQueries: nQueries, ZipfS: zipfS, CacheMB: cacheMB,
		FailedRequests: int(failed.Load()), MismatchedByte: int(mismatched.Load()),
		Shed429: met.Shed429.Load(), Shed503: met.Shed503.Load(),
		P50Ms: pct(0.50), P95Ms: pct(0.95), P99Ms: pct(0.99),
		MeanMs:        float64(mean) / float64(time.Millisecond),
		ReqPerSec:     float64(len(all)) / wall.Seconds(),
		MBPerSec:      float64(respBytes.Load()) / (1 << 20) / wall.Seconds(),
		CacheHitRatio: st.HitRatio(), WallSeconds: wall.Seconds(),
	}
	return rec, nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serveMain is the `fpsz-bench serve` entry point.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	pf := registerProfileFlags(fs)
	var (
		dimsArg  = fs.String("dims", "128x128x128", "per-field grid")
		nFields  = fs.Int("fields", 4, "fields in the archive")
		readers  = fs.Int("readers", 256, "concurrent reader goroutines")
		requests = fs.Int("requests", 8192, "total ROI requests across all readers")
		queries  = fs.Int("queries", 64, "distinct precomputed ROI queries")
		zipfS    = fs.Float64("zipf", 1.2, "zipf skew of query popularity (> 1)")
		cacheMB  = fs.Int64("cache-mb", 256, "server decoded-chunk cache (MiB)")
		out      = fs.String("out", "-", "JSON output path (default stdout)")
	)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	rec, err := serveRecord(*dimsArg, *nFields, *readers, *requests, *queries, *zipfS, *cacheMB)
	if err != nil {
		return err
	}
	if rec.FailedRequests > 0 || rec.MismatchedByte > 0 {
		return fmt.Errorf("serve bench: %d failed requests, %d mismatched responses (want 0/0)",
			rec.FailedRequests, rec.MismatchedByte)
	}
	blob, err := json.MarshalIndent([]ServeRecord{rec}, "", "  ")
	if err != nil {
		return err
	}
	if err := writeJSON(*out, blob); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"serve bench: %d readers x %d reqs: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, %.0f req/s, %.1f MB/s, hit ratio %.3f\n",
		rec.Readers, rec.Requests, rec.P50Ms, rec.P95Ms, rec.P99Ms, rec.ReqPerSec, rec.MBPerSec, rec.CacheHitRatio)
	return nil
}
