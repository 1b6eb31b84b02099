package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/server"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

// Every service request uploads the same program's trace. There is no
// request mix: each service workload sends one kind of request, so every
// number it reports belongs to one path through the server and no
// assumed traffic share weights it.
//   - tracedstd-hit re-uploads a trace the result cache already holds;
//   - tracedstd-miss uploads a trace the server has not seen (a fresh
//     header PID), which runs the whole pipeline.
//
// The program is matmul at N=24, the size `gltrace -w matmul` traces by
// default, encoded as an indexed .glb (`gltrace -glb-index`).
var serviceProgram = program{workloads.MatMul, map[string]string{"N": "24"}}

const (
	// conns is how many closed-loop clients the load generator runs, and
	// so how many HTTP connections it opens and requests it has in
	// flight: one per host core.
	conns = 2
	// clientIDs is how many X-Client-ID values requests rotate through,
	// enough that no client nears the server's default per-client rate
	// limit even at several times today's throughput.
	clientIDs = 256
)

// serviceBench is a tracedstd workload: an in-process server behind a
// loopback HTTP listener, driven by conns closed-loop clients. Each
// request uploads the trace with POST /jobs?wait=1 and fetches GET
// /jobs/{id}/report; a client sends its next request only when the
// previous one has completed, as a caller of wait=1 does.
type serviceBench struct {
	rc     *runConfig
	dir    string
	hit    bool // every request re-uploads the cached trace
	upload *upload
	recs   []trace.Record
	srv    *tracedstd // the untraced window's server

	mu      sync.Mutex // guards rng, pid and seq
	rng     *rand.Rand
	pid     int // the latest PID handed out
	hitPID  int // tracedstd-hit: the PID of the cached upload
	seq     int
	clients []string
}

func setupHit(rc *runConfig, dir string) (instance, error)  { return setupService(rc, dir, true) }
func setupMiss(rc *runConfig, dir string) (instance, error) { return setupService(rc, dir, false) }

func setupService(rc *runConfig, dir string, hit bool) (instance, error) {
	b := &serviceBench{rc: rc, dir: dir, hit: hit, rng: rc.rng()}
	res, err := tracer.Run(serviceProgram.src, serviceProgram.defs, tracer.Options{})
	if err != nil {
		return nil, err
	}
	if b.upload, err = newUpload(res.Records); err != nil {
		return nil, err
	}
	b.recs = res.Records

	b.pid = pidLo + b.rng.Intn((pidHi-pidLo)/2)
	if hit {
		b.hitPID = b.freshPID()
	}
	for i := 0; i < clientIDs; i++ {
		b.clients = append(b.clients, fmt.Sprintf("client-%03d", i))
	}
	b.rng.Shuffle(len(b.clients), func(i, j int) { b.clients[i], b.clients[j] = b.clients[j], b.clients[i] })
	b.srv, err = startServer(filepath.Join(dir, "state"), nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (b *serviceBench) close() { b.srv.stop() }

// reference renders the expected report with a direct simulation on the
// server's default geometry.
func (b *serviceBench) reference() error {
	sim, err := dinero.New(dinero.Options{L1: cache.Paper32KDirect()})
	if err != nil {
		return err
	}
	sim.Process(b.recs)
	b.upload.want = sim.Report()
	return nil
}

// request is one upload-and-report round trip.
type request struct {
	pid    int
	client string
}

// next draws the next request: the cached upload's PID (tracedstd-hit) or
// a PID no earlier request used (tracedstd-miss), and the next client ID.
func (b *serviceBench) next() request {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := request{client: b.clients[b.seq%len(b.clients)]}
	b.seq++
	if b.hit {
		q.pid = b.hitPID
	} else {
		q.pid = b.freshPID()
	}
	return q
}

// freshPID returns a PID no earlier request of the run used; b.mu held or
// not yet shared.
func (b *serviceBench) freshPID() int {
	b.pid++
	if b.pid >= pidHi {
		panic("benchrun: PID space exhausted")
	}
	return b.pid
}

// tracedstd is one running server and the client that drives it.
type tracedstd struct {
	dir       string
	reg       *telemetry.Registry
	srv       *server.Server
	hs        *httptest.Server
	client    *http.Client
	reclaimed atomic.Int64 // spool bytes removed after their jobs finished
	jobs      atomic.Int64
}

func startServer(dir string, exp *telemetry.SpanExporter) (*tracedstd, error) {
	reg := telemetry.NewRegistry()
	srv, err := server.New(server.Config{StateDir: dir, Reg: reg, Exporter: exp})
	if err != nil {
		return nil, err
	}
	return &tracedstd{
		dir: dir,
		reg: reg,
		srv: srv,
		hs:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}, nil
}

func (t *tracedstd) stop() {
	t.client.CloseIdleConnections()
	t.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := t.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun: server shutdown:", err)
	}
}

// rejected sums the server's admission refusals.
func (t *tracedstd) rejected() int64 {
	var n int64
	for _, c := range []string{"drain", "rate", "queue", "size", "body"} {
		n += t.reg.Counter("server.rejected_" + c).Value()
	}
	return n
}

// stateBytesPerJob is what the server keeps on disk per job: its state
// directory now plus the spool files reclaimed after their jobs finished.
func (t *tracedstd) stateBytesPerJob() float64 {
	var size int64
	filepath.WalkDir(t.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				size += fi.Size()
			}
		}
		return nil
	})
	return float64(size+t.reclaimed.Load()) / float64(max(t.jobs.Load(), 1))
}

// do sends one request and checks its outputs against the oracle: the
// upload must finish done, come from the result cache exactly when cached
// says so, and report what the reference run reported.
func (b *serviceBench) do(t *tracedstd, q request, cached bool, sp *span) error {
	u := b.upload
	req, err := http.NewRequest(http.MethodPost, t.hs.URL+"/jobs?wait=1", u.body(q.pid))
	if err != nil {
		return err
	}
	req.ContentLength = u.size()
	req.Header.Set("X-Client-ID", q.client)
	if tp := sp.traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	var job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
	}
	body, err := roundTrip(t.client, req)
	if err != nil {
		return fmt.Errorf("POST /jobs: %w", err)
	}
	if err := json.Unmarshal(body, &job); err != nil {
		return fmt.Errorf("POST /jobs: %w", err)
	}
	t.jobs.Add(1)
	spool := filepath.Join(t.dir, "spool", job.ID+".trace")
	if fi, err := os.Stat(spool); err == nil && os.Remove(spool) == nil {
		t.reclaimed.Add(fi.Size())
	}
	if job.State != string(server.StateDone) {
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if job.Cached != cached {
		return mismatch("job %s: cached=%t", job.ID, job.Cached)
	}
	get, err := http.NewRequest(http.MethodGet, t.hs.URL+"/jobs/"+job.ID+"/report", nil)
	if err != nil {
		return err
	}
	report, err := roundTrip(t.client, get)
	if err != nil {
		return fmt.Errorf("GET report: %w", err)
	}
	if string(report) != u.want {
		return mismatch("job %s: report", job.ID)
	}
	return nil
}

// roundTrip sends req and returns the body of a 200 response; any other
// status, a refusal included, is an error.
func roundTrip(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, body)
	}
	return body, nil
}

// add records one finished request into w; a failed request misses every
// latency limit.
func (w *window) add(ms float64, err error, records int64) {
	w.attempted++
	if err != nil {
		w.fail(err)
		return
	}
	w.lat = append(w.lat, ms)
	w.records += records
}

// merge adds o's operations to w.
func (w *window) merge(o *window) {
	w.lat = append(w.lat, o.lat...)
	w.records += o.records
	w.attempted += o.attempted
	w.failed += o.failed
	w.errs = append(w.errs, o.errs...)
}

// closedLoop runs conns clients back to back for d; each sends its next
// request as soon as the previous one completes.
func (b *serviceBench) closedLoop(d time.Duration, send func(request) error) *window {
	w := &window{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				q := b.next()
				t0 := time.Now()
				err := send(q)
				ms := sinceMS(t0)
				mu.Lock()
				w.add(ms, err, b.upload.records)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.recPerS = float64(w.records) / time.Since(start).Seconds()
	return w
}

// loop drives t for d, each request under a client.request span when log
// is set.
func (b *serviceBench) loop(t *tracedstd, d time.Duration, log *spanLog) *window {
	return b.closedLoop(d, func(q request) error {
		sp := log.root("client.request")
		err := b.do(t, q, b.hit, sp)
		sp.end()
		return err
	})
}

// warmOn readies t for the workload and then runs it untimed for the
// warm-up time. On tracedstd-hit it first uploads the trace once, which
// the server simulates and caches.
func (b *serviceBench) warmOn(t *tracedstd) error {
	if b.hit {
		if err := b.do(t, request{pid: b.hitPID, client: "warm-up"}, false, nil); err != nil {
			return err
		}
	}
	if w := b.closedLoop(b.rc.warmup, func(q request) error { return b.do(t, q, b.hit, nil) }); w.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed: %v", w.failed, w.attempted, w.errs)
	}
	return nil
}

func (b *serviceBench) warm() error { return b.warmOn(b.srv) }

func (b *serviceBench) measure(d time.Duration) *window {
	return b.loop(b.srv, d, nil)
}

// traced runs the window against a fresh server that exports its spans:
// the harness's client.request span rides on each upload as traceparent,
// so the server's server.job span, and its stage spans beneath it, join
// the request's trace.
func (b *serviceBench) traced(d time.Duration, log *spanLog, _ *window) (*window, map[string]float64, error) {
	exp := telemetry.NewSpanExporter("")
	t, err := startServer(filepath.Join(b.dir, "traced"), exp)
	if err != nil {
		return nil, nil, err
	}
	defer t.stop()
	// The untraced partner is fresh too: the server's per-request cost
	// grows with the jobs it holds, so the measured window's server, with
	// thousands more behind it, would not be a fair comparison.
	plain, err := startServer(filepath.Join(b.dir, "plain"), nil)
	if err != nil {
		return nil, nil, err
	}
	defer plain.stop()
	for _, s := range []*tracedstd{t, plain} {
		if err := b.warmOn(s); err != nil {
			return nil, nil, err
		}
	}
	warmSpans := len(exp.Events())
	lookups0, hits0 := t.reg.Counter("simcache.lookups").Value(), t.reg.Counter("simcache.hits").Value()
	mark := log.mark()
	// The traced window runs in one-second slices, each next to an equal
	// untraced slice, in alternating order: the tracing overhead is then
	// the median slice-pair ratio, which the host's drift between windows
	// does not reach.
	slices := max(1, int(d/time.Second))
	slice := d / time.Duration(slices)
	w := &window{}
	var ratios []float64
	for i := 0; i < slices; i++ {
		var tw, pw *window
		if i%2 == 0 {
			tw, pw = b.loop(t, slice, log), b.loop(plain, slice, nil)
		} else {
			pw, tw = b.loop(plain, slice, nil), b.loop(t, slice, log)
		}
		w.merge(tw)
		w.merge(&window{attempted: pw.attempted, failed: pw.failed, errs: pw.errs})
		ratios = append(ratios, median(tw.lat)/median(pw.lat))
	}
	log.add(exp.Events()[warmSpans:]...)
	ix := newSpanIndex(log.since(mark))

	clients := map[string]telemetry.SpanEvent{}
	for _, c := range ix.named("client.request") {
		clients[c.Trace] = c
	}
	var job, self, outside []float64
	var wall, covered float64
	orphans := 0
	for _, j := range ix.named("server.job") {
		c, ok := clients[j.Trace]
		if !ok || j.Parent != c.Span {
			orphans++
			continue
		}
		job = append(job, float64(j.WallNS())/1e6)
		outside = append(outside, float64(c.WallNS()-j.WallNS())/1e6)
		cov := ix.coveredNS(j)
		self = append(self, float64(j.WallNS()-cov)/1e6)
		wall += float64(j.WallNS())
		covered += float64(cov)
	}
	if orphans > 0 {
		return nil, nil, fmt.Errorf("%d server.job spans lack a harness client span as parent", orphans)
	}
	l := map[string]float64{
		"trace_overhead_pct": 100 * (median(ratios) - 1),
		"simcache.hit_ratio": float64(t.reg.Counter("simcache.hits").Value()-hits0) /
			float64(max(t.reg.Counter("simcache.lookups").Value()-lookups0, 1)),
		"server.rejected":            float64(b.srv.rejected() + t.rejected() + plain.rejected()),
		"server.state_bytes_per_job": b.srv.stateBytesPerJob(),
		"server.outside_job.p50_ms":  median(outside),
	}
	if b.hit {
		l["simcache.hit_job.p50_ms"] = median(job)
	} else {
		l["trace.validate.p50_ms"] = median(wallsMS(ix.named("validate.trace")))
		l["server.pipeline.p50_ms"] = median(wallsMS(ix.named("dinero.simulate")))
		l["server.job_self.p50_ms"] = median(self)
		l["layers.coverage"] = covered / wall
	}
	return w, l, nil
}

func wallsMS(evs []telemetry.SpanEvent) []float64 {
	out := make([]float64, len(evs))
	for i, ev := range evs {
		out[i] = float64(ev.WallNS()) / 1e6
	}
	return out
}
