package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/datagen"
	"fixedpsnr/internal/fieldio"
	"fixedpsnr/internal/serve"
)

// serve-mixed parameters. The archive holds the six NYX fields on a
// 32×128×128 grid in four-plane chunks (65536 points), so a two-plane
// region read decodes one or two chunks; the
// decoded chunk set is four times the server's chunk cache, so misses go
// through chunk decode. One client operation in servePutEvery re-uploads
// a field, which re-encodes it, rewrites the archive and invalidates the
// archive's cached chunks.
// Every query reads a serveRegion block at its own field and offset, so
// the bytes a request moves do not depend on which queries the zipf draw
// makes hot.
var (
	serveDims        = []int{32, 128, 128}
	serveRegion      = []int{2, 64, 64}
	serveRegionBytes = float64(4 * serveRegion[0] * serveRegion[1] * serveRegion[2]) // float32 footprint
)

const (
	serveArchive     = "snap"
	serveChunkPoints = 65536
	serveClients     = 2
	servePSNR        = 60
	serveQueries     = 64
	servePutEvery    = 50
	serveZipfS       = 1.3
	serveCacheShare  = 4 // decoded chunk set ÷ cache size
)

// serveQuery is one precomputed region read with its expected response
// body for each field version.
type serveQuery struct {
	field    int
	off, ext []int
	path     string
	want     [2][]byte
}

// serveState is one set-up of the serve workload: the server, its
// inputs, and the ground truth every response is checked against.
type serveState struct {
	dir     string
	srv     *serve.Server
	hs      *http.Server
	base    string
	fields  [][2]*fixedpsnr.Field // per field: the two versions PUTs alternate between
	bodies  [][2][]byte           // SDF1 PUT bodies
	streams [][2][]byte           // each version's stream, encoded offline
	queries []serveQuery

	putMu     []sync.Mutex   // serializes PUTs of one field
	started   []atomic.Int64 // PUTs of the field started
	completed []atomic.Int64 // PUTs of the field completed
}

// serveOptions is the configuration the PUT query string selects.
func serveOptions() fixedpsnr.Options {
	return fixedpsnr.Options{Mode: fixedpsnr.ModePSNR, TargetPSNR: servePSNR, ChunkPoints: serveChunkPoints}
}

func (st *serveState) putPath(fi int) string {
	return fmt.Sprintf("%s/v1/archives/%s/fields/%s?psnr=%d&chunkpoints=%d",
		st.base, serveArchive, st.fields[fi][0].Name, servePSNR, serveChunkPoints)
}

// buildServe synthesizes both versions of every field, encodes them
// offline, starts the server on loopback, uploads version 0 of every
// field, and precomputes every query's answer for both versions.
func buildServe(cfg config, idx int, tl *tally) (*serveState, error) {
	st := &serveState{dir: filepath.Join(cfg.workDir, fmt.Sprintf("serve-%d", idx))}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	v0, err := synthFields(cfg.seed, cfg.nproc, datagen.NYX(serveDims))
	if err != nil {
		return nil, err
	}
	ds1 := datagen.NYX(serveDims)
	ds1.Name += "/v1"
	v1, err := synthFields(cfg.seed, cfg.nproc, ds1)
	if err != nil {
		return nil, err
	}
	nf := len(v0)
	st.fields = make([][2]*fixedpsnr.Field, nf)
	st.bodies = make([][2][]byte, nf)
	st.streams = make([][2][]byte, nf)
	st.putMu = make([]sync.Mutex, nf)
	st.started = make([]atomic.Int64, nf)
	st.completed = make([]atomic.Int64, nf)
	var decoded float64
	for fi := range v0 {
		st.fields[fi] = [2]*fixedpsnr.Field{v0[fi], v1[fi]}
		for v, f := range st.fields[fi] {
			var buf bytes.Buffer
			if err := fieldio.Write(&buf, f); err != nil {
				return nil, err
			}
			st.bodies[fi][v] = buf.Bytes()
			enc, err := fixedpsnr.NewEncoder(fixedpsnr.WithOptions(serveOptions()))
			if err != nil {
				return nil, err
			}
			if st.streams[fi][v], _, err = enc.Encode(context.Background(), f); err != nil {
				return nil, err
			}
		}
		decoded += float64(8 * len(v0[fi].Data))
	}

	srv, err := serve.NewServer(serve.Config{Root: st.dir, CacheBytes: int64(decoded / serveCacheShare)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = srv
	st.hs = &http.Server{Handler: srv.Handler()}
	go st.hs.Serve(ln)
	st.base = "http://" + ln.Addr().String()
	client := newClient()
	defer client.CloseIdleConnections()
	for fi := range st.fields {
		n, err := st.put(client, fi, 0)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("initial upload: %w", err)
		}
		st.checkStored(tl, fi, 0, n)
	}

	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x5e7e))
	dec := fixedpsnr.NewDecoder()
	st.queries = make([]serveQuery, serveQueries)
	for qi := range st.queries {
		// The layout of the query set is the same for every seed: query
		// qi reads field qi mod nf at a plane offset that steps through
		// the field, so the zipf-hot queries cover the same chunk
		// structure and the hit ratio does not hinge on where random
		// draws put them. The seed picks the offsets inside the planes.
		q := serveQuery{field: qi % nf, off: make([]int, 3), ext: serveRegion}
		planes := serveDims[0] - q.ext[0] + 1
		q.off[0] = (qi / nf * 3) % planes
		for d := 1; d < len(serveDims); d++ {
			q.off[d] = rng.IntN(serveDims[d] - q.ext[d] + 1)
		}
		q.path = fmt.Sprintf("%s/v1/archives/%s/fields/%s/region?off=%s&ext=%s",
			st.base, serveArchive, st.fields[q.field][0].Name, csv(q.off), csv(q.ext))
		for v := range q.want {
			g, _, err := dec.DecodeRegion(context.Background(), st.streams[q.field][v], q.off, q.ext)
			if err != nil {
				st.close()
				return nil, err
			}
			var buf bytes.Buffer
			if err := fieldio.Write(&buf, g); err != nil {
				st.close()
				return nil, err
			}
			q.want[v] = buf.Bytes()
		}
		st.queries[qi] = q
	}
	return st, nil
}

// close stops the server, waits for its handlers, and removes the
// catalog directory.
func (st *serveState) close() {
	if st.hs != nil {
		st.hs.Close()
		st.srv.Catalog().Close()
	}
	os.RemoveAll(st.dir)
}

// newClient is one client connection: a transport holding at most one
// keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// put uploads version v of field fi and returns the stored stream's byte
// count from the response.
func (st *serveState) put(client *http.Client, fi, v int) (int, error) {
	req, err := http.NewRequest(http.MethodPut, st.putPath(fi), bytes.NewReader(st.bodies[fi][v]))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusCreated {
		return 0, fmt.Errorf("PUT %s: status %d: %s", st.fields[fi][0].Name, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var out struct {
		CompressedBytes int `json:"compressed_bytes"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, err
	}
	return out.CompressedBytes, nil
}

// servePhase accumulates one phase of the closed-loop run.
type servePhase struct {
	mu      sync.Mutex
	gets    []getSample
	putMS   []float64
	putMBps []float64
	wall    time.Duration
	cpuS    float64
	steal   float64                   // share of machine CPU time stolen during the phase
	marks   [serveWindows + 1]cpuStat // CPU counters at the window boundaries
}

// getSample is one completed GET: when it finished, measured from the
// phase start, and its round-trip time.
type getSample struct {
	at, lat time.Duration
}

// The GET metrics are computed over the serveQuiet windows, out of
// serveWindows equal windows of a phase, that lost the least CPU time to
// the hypervisor: a latency tail on a shared host otherwise measures the
// neighbors' bursts, which a phase-wide steal correction cannot undo.
const (
	serveWindows = 5
	serveQuiet   = 3
)

// getStats are the GET metrics of a phase's quiet windows,
// steal-corrected (runShare).
type getStats struct {
	n       int     // GETs in the quiet windows
	p50     float64 // ms
	tail    float64 // ms
	tailPct float64 // the percentile tail reports
	rps     float64 // completed GETs per second
	mbps    float64 // region bytes ÷ summed round-trip time
	meanS   float64 // mean round trip, s
	steal   float64 // stolen share in the quiet windows
}

func (ph *servePhase) getStats(d time.Duration) getStats {
	win := make([][]float64, serveWindows)
	for _, g := range ph.gets {
		w := min(int(g.at*serveWindows/d), serveWindows-1)
		win[w] = append(win[w], 1000*g.lat.Seconds())
	}
	order := make([]int, serveWindows)
	steal := make([]float64, serveWindows)
	for w := range order {
		order[w], steal[w] = w, stealShare(ph.marks[w], ph.marks[w+1])
	}
	sort.SliceStable(order, func(i, j int) bool { return steal[order[i]] < steal[order[j]] })
	var quiet []float64
	var stolen float64
	for _, w := range order[:serveQuiet] {
		quiet = append(quiet, win[w]...)
		stolen += steal[w] / serveQuiet
	}
	run := runShare(stolen)
	s := summarize(quiet)
	st := getStats{n: s.N, tailPct: s.TailPct, steal: stolen}
	if s.N == 0 {
		return st
	}
	st.p50, st.tail = run*s.P50, run*s.Tail
	st.meanS = run * mean(quiet) / 1000
	st.rps = float64(s.N) / (run * d.Seconds() * serveQuiet / serveWindows)
	st.mbps = serveRegionBytes / 1e6 / st.meanS
	return st
}

// run drives the server from serveClients closed-loop clients (at most
// one per core), each on one connection with no think time, until d has
// elapsed.
func (st *serveState) run(cfg config, d time.Duration, tr *tracer, tl *tally, phaseSeed uint64) *servePhase {
	ph := &servePhase{}
	clients := max(1, min(serveClients, cfg.nproc))
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	ph.marks[0] = readCPUStat()
	t0 := time.Now()
	// The sampler reads the CPU counters at each inner window boundary;
	// it stops early if the clients finish first.
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for w := 1; w < serveWindows; w++ {
			select {
			case <-time.After(time.Until(t0.Add(d * time.Duration(w) / serveWindows))):
				ph.marks[w] = readCPUStat()
			case <-stop:
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewPCG(uint64(cfg.seed)^phaseSeed, uint64(c)))
			zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(st.queries)-1))
			puts := 0
			for op := 0; time.Since(t0) < d; op++ {
				if (op+1+c*servePutEvery/clients)%servePutEvery == 0 {
					st.putOp(ph, client, (puts*clients+c)%len(st.fields), tr, tl)
					puts++
					continue
				}
				st.getOp(ph, client, &st.queries[zipf.Uint64()], tr, tl, t0)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	ph.wall = time.Since(t0)
	ph.cpuS = cpuSeconds() - cpu0
	ph.marks[serveWindows] = readCPUStat()
	for w := 1; w < serveWindows; w++ {
		if ph.marks[w].total == 0 {
			ph.marks[w] = ph.marks[w-1]
		}
	}
	ph.steal = stealShare(ph.marks[0], ph.marks[serveWindows])
	return ph
}

// getOp issues one region read and byte-compares the body with the
// answer of every field version that could have been live while the
// request was in flight.
func (st *serveState) getOp(ph *servePhase, client *http.Client, q *serveQuery, tr *tracer, tl *tally, phaseStart time.Time) {
	lo := st.completed[q.field].Load()
	sp := tr.begin("serve.get", -1)
	t0 := time.Now()
	resp, err := client.Get(q.path)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	hi := st.started[q.field].Load()
	ck := tr.begin("bench.check", sp)
	switch {
	case err != nil:
		tl.fail("GET %s: %v", q.path, err)
	case resp.StatusCode != http.StatusOK:
		tl.fail("GET %s: status %d", q.path, resp.StatusCode)
	case bytes.Equal(body, q.want[lo%2]) || (hi > lo && bytes.Equal(body, q.want[(lo+1)%2])):
		tl.ok()
	default:
		tl.fail("GET %s: response differs from every version live during the request", q.path)
	}
	tr.end(ck)
	tr.end(sp)
	ph.mu.Lock()
	ph.gets = append(ph.gets, getSample{at: done.Sub(phaseStart), lat: done.Sub(t0)})
	ph.mu.Unlock()
}

// putOp re-uploads field fi, alternating its version, and checks the
// stored stream size against the offline encode of that version.
func (st *serveState) putOp(ph *servePhase, client *http.Client, fi int, tr *tracer, tl *tally) {
	st.putMu[fi].Lock()
	defer st.putMu[fi].Unlock()
	v := int((st.completed[fi].Load() + 1) % 2)
	st.started[fi].Add(1)
	sp := tr.begin("serve.put", -1)
	t0 := time.Now()
	n, err := st.put(client, fi, v)
	el := time.Since(t0)
	tr.end(sp)
	st.completed[fi].Add(1)
	if err != nil {
		tl.fail("%v", err)
		return
	}
	if !st.checkStored(tl, fi, v, n) {
		return
	}
	raw := float64(4 * len(st.fields[fi][v].Data))
	ph.mu.Lock()
	ph.putMS = append(ph.putMS, 1000*el.Seconds())
	ph.putMBps = append(ph.putMBps, raw/1e6/el.Seconds())
	ph.mu.Unlock()
}

// checkStored checks that the server stored version v of field fi in n
// bytes, the size of the offline encode of that version.
func (st *serveState) checkStored(tl *tally, fi, v, n int) bool {
	if want := len(st.streams[fi][v]); n != want {
		tl.fail("PUT %s v%d stored %d bytes, the offline encode is %d", st.fields[fi][v].Name, v, n, want)
		return false
	}
	tl.ok()
	return true
}

// ratio is field bytes over stream bytes across both versions of every
// field; checkStored holds each PUT to these stream sizes.
func (st *serveState) ratio() float64 {
	var raw, out float64
	for fi := range st.fields {
		for v, f := range st.fields[fi] {
			raw += float64(4 * len(f.Data))
			out += float64(len(st.streams[fi][v]))
		}
	}
	return raw / out
}

// runServeMixed serves zipfian region reads mixed with field re-uploads
// from an in-process fpsz-serve on loopback.
func runServeMixed(cfg config, rep *report) error {
	idx := 0
	st, setupS, err := timedSetup(func() (*serveState, error) {
		idx++
		return buildServe(cfg, idx, &rep.tally)
	}, func(s *serveState) { s.close() })
	if err != nil {
		return err
	}
	defer st.close()
	rep.e2e["setup_s"] = setupS

	d := cfg.measureFor()
	un := st.run(cfg, d, nil, &rep.tally, 1)
	if len(un.gets) == 0 || len(un.putMBps) == 0 {
		return fmt.Errorf("no GET or no PUT completed in %v", un.wall)
	}
	get := un.getStats(d)
	rep.e2e["encode_mbps"] = median(un.putMBps) / runShare(un.steal)
	rep.e2e["decode_mbps"] = get.mbps
	rep.e2e["op_p50_ms"] = get.p50
	rep.e2e["op_tail_ms"] = get.tail
	rep.e2e["ops_per_s"] = get.rps
	rep.e2e["ratio"] = st.ratio()
	rep.note("%d GETs in the %d of %d windows with the least steal (%.1f%% stolen; %.1f%% over the run): p50 %.3f ms, p%g %.3f ms, steal-corrected; %d PUTs: p50 %.3f ms",
		get.n, serveQuiet, serveWindows, 100*get.steal, 100*un.steal, get.p50, get.tailPct, get.tail, len(un.putMS), median(un.putMS))
	if !cfg.trace {
		return nil
	}

	tr := newTracer()
	c0, m0 := st.srv.CacheStats(), st.srv.Metrics()
	shed0 := m0.Shed429.Load() + m0.Shed503.Load()
	h0, err := scrapeRouteHist(st.base, "get_region")
	if err != nil {
		return err
	}
	tp := st.run(cfg, d, tr, &rep.tally, 2)
	c1 := st.srv.CacheStats()
	h1, err := scrapeRouteHist(st.base, "get_region")
	if err != nil {
		return err
	}
	L := rep.layer
	lookups := float64((c1.Hits - c0.Hits) + (c1.Misses - c0.Misses) + (c1.Coalesced - c0.Coalesced))
	if lookups > 0 {
		L["serve.cache_hit_ratio"] = float64((c1.Hits-c0.Hits)+(c1.Coalesced-c0.Coalesced)) / lookups
	}
	L["serve.cache_misses"] = float64(c1.Misses - c0.Misses)
	L["serve.cache_coalesced"] = float64(c1.Coalesced - c0.Coalesced)
	L["serve.cache_evictions"] = float64(c1.Evictions - c0.Evictions)
	L["serve.shed"] = float64(m0.Shed429.Load() + m0.Shed503.Load() - shed0)
	L["serve.route_get_p50_ms"] = 1000 * h1.sub(h0).quantile(0.5)
	L["serve.put_p50_ms"] = median(tp.putMS)
	if len(tp.gets) == 0 {
		return fmt.Errorf("no GET completed in the traced phase")
	}
	tget := tp.getStats(d)
	L["trace.overhead_pct"] = overheadPct(get.meanS, tget.meanS)

	if err := st.replay(cfg, rep, tr); err != nil {
		return err
	}
	// The replay's sweep reports its own busy fraction; the server's is
	// the one that belongs to this workload.
	L["parallel.busy_frac"] = tp.cpuS / (tp.wall.Seconds() * float64(cfg.nproc))
	L["trace.op_samples"] = float64(tget.n)
	L["trace.tail_pct"] = tget.tailPct
	L["trace.steal_pct"] = 100 * tp.steal
	return nil
}

// replay re-runs the layers under the server on this run's data: the
// PUT encode and decode through the public API, the catalog rewrite,
// chunk payload reads, SDF1 parsing and writing, region copies, and the
// chunk-level replays of the streams now live in the archive.
func (st *serveState) replay(cfg config, rep *report, tr *tracer) error {
	var fields []*fixedpsnr.Field
	for _, fv := range st.fields {
		fields = append(fields, fv[0], fv[1])
	}
	sw := &sweep{
		fields: fields,
		cases:  []sweepCase{{label: "put_encode", opts: []fixedpsnr.Option{fixedpsnr.WithOptions(serveOptions())}, targetPSNR: servePSNR}},
		dec:    fixedpsnr.NewDecoder(),
		tl:     &rep.tally,
	}
	ph := &sweepPhase{}
	if err := sw.rep(ph, tr); err != nil {
		return err
	}
	ph.layerMetrics(rep.layer, cfg.nproc)

	root := tr.begin("replay.serve", -1)
	sp := tr.begin("fieldio.write", root)
	for _, f := range fields {
		if err := fieldio.Write(io.Discard, f); err != nil {
			return err
		}
	}
	tr.end(sp)
	sp = tr.begin("fieldio.read", root)
	for _, bv := range st.bodies {
		for _, b := range bv {
			if _, err := fieldio.Read(bytes.NewReader(b)); err != nil {
				return err
			}
		}
	}
	tr.end(sp)

	cat, err := serve.NewCatalog(filepath.Join(st.dir, "replay"))
	if err != nil {
		return err
	}
	defer cat.Close()
	sp = tr.begin("serve.catalog_put", root)
	for fi := range st.fields {
		if err := cat.Put(serveArchive, st.fields[fi][0].Name, st.streams[fi][0]); err != nil {
			return err
		}
	}
	tr.end(sp)

	ar, err := fixedpsnr.OpenArchiveFile(st.srv.Catalog().Path(serveArchive))
	if err != nil {
		return err
	}
	defer ar.Close()
	sp = tr.begin("serve.payload_read", root)
	for i := 0; i < ar.Len(); i++ {
		h, err := ar.Info(i)
		if err != nil {
			return err
		}
		for ci := range h.Chunks {
			if _, err := ar.ChunkPayload(i, ci); err != nil {
				return err
			}
		}
	}
	tr.end(sp)

	// Region copies and chunk replays run on the version each field
	// ends the run at.
	rp := newReplayer(tr, &rep.tally)
	dec := fixedpsnr.NewDecoder()
	var copyS float64
	for fi := range st.fields {
		v := int(st.completed[fi].Load() % 2)
		blob := st.streams[fi][v]
		g, _, err := dec.Decode(context.Background(), blob)
		if err != nil {
			return err
		}
		h, err := codec.ParseHeader(blob)
		if err != nil {
			return err
		}
		inner := h.InnerPoints()
		for qi := range st.queries {
			q := &st.queries[qi]
			if q.field != fi {
				continue
			}
			out := make([]float64, q.ext[0]*q.ext[1]*q.ext[2])
			t := tr.begin("codec.region_copy", root)
			for ci, ck := range h.Chunks {
				if ck.RowStart >= q.off[0]+q.ext[0] || ck.RowStart+ck.Rows <= q.off[0] {
					continue
				}
				codec.CopyChunkRegion(out, h, ci, g.Data[ck.RowStart*inner:(ck.RowStart+ck.Rows)*inner], q.off, q.ext)
			}
			copyS += tr.end(t).Seconds()
		}
		rp.stream(st.fields[fi][v], g, blob)
	}
	tr.end(root)
	rep.spans = summarizeSpans(tr.snapshot())
	rp.layerMetrics(rep.layer, rep.spans)
	L := rep.layer
	L["codec.region_copy_s"] = copyS
	L["fieldio.write_s"] = spanTotal(rep.spans, "fieldio.write")
	L["fieldio.read_s"] = spanTotal(rep.spans, "fieldio.read")
	L["serve.catalog_put_s"] = spanTotal(rep.spans, "serve.catalog_put")
	L["serve.payload_read_s"] = spanTotal(rep.spans, "serve.payload_read")
	return nil
}

// routeHist is one route's cumulative latency histogram scraped from
// /metrics: upper bounds in seconds and cumulative counts.
type routeHist struct {
	le  []float64
	cum []float64
}

// scrapeRouteHist reads route's fpsz_request_seconds histogram.
func scrapeRouteHist(base, route string) (routeHist, error) {
	var h routeHist
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	prefix := fmt.Sprintf("fpsz_request_seconds_bucket{route=%q,le=\"", route)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimPrefix(line, prefix)
		leS, countS, ok := strings.Cut(rest, "\"} ")
		if !ok {
			return h, fmt.Errorf("metrics: bad bucket line %q", line)
		}
		le := math.Inf(1)
		if leS != "+Inf" {
			if le, err = strconv.ParseFloat(leS, 64); err != nil {
				return h, err
			}
		}
		n, err := strconv.ParseFloat(countS, 64)
		if err != nil {
			return h, err
		}
		h.le = append(h.le, le)
		h.cum = append(h.cum, n)
	}
	return h, sc.Err()
}

// sub is the histogram of the requests observed between two scrapes.
func (h routeHist) sub(prev routeHist) routeHist {
	out := routeHist{le: h.le, cum: append([]float64(nil), h.cum...)}
	for i := range out.cum {
		if i < len(prev.cum) {
			out.cum[i] -= prev.cum[i]
		}
	}
	return out
}

// quantile interpolates the q-quantile linearly inside its bucket (the
// Prometheus histogram_quantile rule); 0 for an empty histogram.
func (h routeHist) quantile(q float64) float64 {
	if len(h.cum) == 0 || h.cum[len(h.cum)-1] == 0 {
		return 0
	}
	rank := q * h.cum[len(h.cum)-1]
	lo, below := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			if math.IsInf(h.le[i], 1) {
				return lo
			}
			return lo + (h.le[i]-lo)*(rank-below)/(c-below)
		}
		lo, below = h.le[i], c
	}
	return lo
}

func csv(v []int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}
