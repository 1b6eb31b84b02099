// Package server implements tracedstd, the resilient trace-analysis
// service: it accepts trace uploads over HTTP, runs each as a managed
// job through the decode → validate → xform → dinero pipeline, and
// defends itself with admission control (rate limiting, body caps,
// bounded queueing), per-job timeouts/retries/panic isolation, and a
// graceful drain that persists in-flight jobs so a restarted server
// resumes them to byte-identical reports.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/cliutil"
	"tracedst/internal/experiments"
	"tracedst/internal/rules"
	"tracedst/internal/simcache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// Config tunes a Server. The zero value is not usable: StateDir is
// required; every other field has a production default.
type Config struct {
	// StateDir is where the server persists state: one store (store/)
	// holding job records and simulation results, and spooled uploads
	// (spool/). Restarting a server on the same StateDir adopts its jobs.
	StateDir string
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueDepth bounds the pending-job queue; submissions beyond it are
	// shed with 503 (default 16).
	QueueDepth int
	// MaxBodyBytes caps an upload body; larger requests get 413
	// (default 64 MiB).
	MaxBodyBytes int64
	// RatePerSec and Burst shape the per-client token bucket guarding
	// POST /jobs; exhausted clients get 429 + Retry-After. RatePerSec 0
	// uses the default (10/s, burst 20); negative disables limiting.
	RatePerSec float64
	Burst      int
	// BodyTimeout bounds reading one upload body, defeating slow-loris
	// writers (default 30s; negative disables).
	BodyTimeout time.Duration
	// Heartbeat is the SSE keep-alive comment interval (default 10s).
	Heartbeat time.Duration
	// Policy is the per-job run policy (timeout, retries, panic
	// isolation). The zero value means no deadline and no retries.
	Policy experiments.RunPolicy
	// BaseConfig is the default L1 geometry jobs simulate against when
	// the upload does not carry a config override (default the paper's
	// 32K direct-mapped cache).
	BaseConfig cache.Config
	// Reg receives server telemetry (default telemetry.Default()).
	Reg *telemetry.Registry
	// Exporter receives completed span events for every traced job (nil
	// disables span export; trace IDs are still assigned and echoed).
	Exporter *telemetry.SpanExporter
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the API
	// handler. Off by default: the profiling endpoints expose internals
	// and should only face operators.
	EnablePprof bool
	// Log receives structured logs (default: discard).
	Log *slog.Logger
	// Throttle sleeps this long between record batches of every job — a
	// debugging/benchmark aid that makes job duration proportional to
	// trace size, so drain behavior can be exercised deterministically
	// (tests and the CI smoke rely on it). Zero, the default, disables.
	// A throttled server also skips result lookups (it still stores
	// results): its purpose is holding jobs in flight, which a hit would
	// defeat.
	Throttle time.Duration
	// JobShards > 1 runs each indexed binary upload (no rule) through the
	// sharded simulation engine with that many workers, so one big job
	// uses all cores. Reports equal a serial run with a cache Flush at
	// every shard boundary. 0/1 = serial.
	JobShards int

	// now is a test hook: a fake clock for the rate limiter.
	now func() time.Time
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = 10
	}
	if c.Burst <= 0 {
		c.Burst = 20
	}
	if c.BodyTimeout == 0 {
		c.BodyTimeout = 30 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 10 * time.Second
	}
	if c.BaseConfig == (cache.Config{}) {
		c.BaseConfig = cache.Paper32KDirect()
	}
	if c.Reg == nil {
		c.Reg = telemetry.Default()
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// jobNS is the store namespace of job records, keyed by job ID.
const jobNS = "job"

// Server is a running tracedstd instance.
type Server struct {
	cfg     Config
	reg     *telemetry.Registry
	log     *slog.Logger
	store   *simcache.Store
	limiter *rateLimiter

	// queued and running count the jobs in those states (the
	// server.queue_depth and server.jobs_running gauges). Whoever moves a
	// job between states moves it between the counts too, under the
	// job's lock (see move).
	queued, running *telemetry.Gauge

	baseCtx    context.Context // canceled when draining starts
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // job IDs in submission order
	queue    chan *job
	draining bool
	seq      int

	wg sync.WaitGroup
}

// New builds a Server on cfg.StateDir, adopting any jobs a previous
// process left behind: terminal jobs are served read-only — a done job's
// report is read back from its stored result — and queued and formerly
// running jobs are re-enqueued (marked Resumed) and will re-run
// deterministically to the same reports. Workers start immediately.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if cfg.StateDir == "" {
		return nil, errors.New("server: Config.StateDir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "spool"), 0o755); err != nil {
		return nil, err
	}
	store, err := simcache.Open(filepath.Join(cfg.StateDir, "store"), cfg.Reg)
	if err != nil {
		return nil, err
	}
	recs, err := simcache.Records[Job](store, jobNS)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Reg,
		store:   store,
		log:     cfg.Log,
		limiter: newRateLimiter(cfg.RatePerSec, cfg.Burst, cfg.now),
		queued:  cfg.Reg.Gauge("server.queue_depth"),
		running: cfg.Reg.Gauge("server.jobs_running"),
		jobs:    map[string]*job{},
	}

	// Adopt persisted jobs before sizing the queue: resumed jobs must all
	// fit regardless of QueueDepth, or a restart could shed its own
	// backlog.
	var resumable []*job
	for _, rec := range recs {
		j := &job{Job: rec, done: make(chan struct{})}
		if n := jobSeq(rec.ID); n > s.seq {
			s.seq = n
		}
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		lost := ""
		switch {
		case rec.State == StateDone:
			var e simcache.Entry
			ok := false
			if rec.Result != nil {
				if e, ok, err = store.Result(*rec.Result); err != nil {
					return nil, err
				}
			}
			if !ok {
				lost = "stored result lost across restart"
			}
			j.Report = e.Report
		case rec.State.terminal():
		default:
			if _, err := os.Stat(s.spoolPath(rec.ID)); err != nil {
				lost = "spooled upload lost across restart"
				break
			}
			j.State = StateQueued
			j.Resumed = true
			j.Error = ""
			s.reg.Counter("server.jobs_resumed").Inc()
			resumable = append(resumable, j)
			continue
		}
		if lost != "" {
			j.State = StateFailed
			j.Error = lost
			j.Result = nil
			j.Finished = cfg.now()
			s.persist(j)
		}
		close(j.done)
	}
	s.queue = make(chan *job, cfg.QueueDepth+len(resumable))
	s.queued.Set(int64(len(resumable)))
	s.running.Set(0)
	for _, j := range resumable {
		s.persist(j)
		s.queue <- j
	}

	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	s.log.Info("server ready", "state", cfg.StateDir, "workers", cfg.Workers,
		"resumed", len(resumable), "jobs", len(s.jobs))
	return s, nil
}

// jobSeq parses the numeric part of a "j%06d" job ID (0 if malformed).
func jobSeq(id string) int {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0
	}
	return n
}

func (s *Server) spoolPath(id string) string {
	return filepath.Join(s.cfg.StateDir, "spool", id+".trace")
}

// removeSpool deletes a job's spooled upload once the job is terminal:
// only a queued job is ever run from it again. The terminal state is
// persisted first, so a crash in between leaves a stray file rather than
// a queued job whose upload is gone.
func (s *Server) removeSpool(id string) {
	if err := os.Remove(s.spoolPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.log.Error("spool cleanup failed", "job", id, "err", err)
	}
}

// persist writes the job's current record to the store. The report is
// left out: a done job's record points at its result, which holds it.
func (s *Server) persist(j *job) {
	// Snapshot under persistMu, so the last write always holds the latest
	// state.
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	j.mu.Lock()
	rec := j.Job
	j.mu.Unlock()
	rec.Report = ""
	if err := s.store.PutRecord(jobNS, rec.ID, rec); err != nil {
		s.log.Error("job record write failed", "job", rec.ID, "err", err)
	}
}

// move counts one job out of state from and into state to in the queued
// and running gauges. The caller has just made that transition under the
// job's lock, still held (or before the job is shared), so anyone who
// sees the job's new state also sees it counted.
func (s *Server) move(from, to JobState) {
	s.count(from, -1)
	s.count(to, 1)
}

func (s *Server) count(st JobState, n int64) {
	switch st {
	case StateQueued:
		s.queued.Add(n)
	case StateRunning:
		s.running.Add(n)
	}
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": fmt.Sprintf(format, args...), "status": status})
}

// requestTrace resolves the trace identity of an upload: a W3C
// traceparent header wins (carrying the remote parent span), then an
// X-Request-ID — used verbatim when it already is a 32-hex trace ID,
// hashed into one otherwise — and a fresh random ID when the client sent
// neither. Every job therefore has a trace ID, whether or not the caller
// participates in distributed tracing.
func requestTrace(r *http.Request) (telemetry.TraceID, telemetry.SpanID) {
	if tp := r.Header.Get("traceparent"); tp != "" {
		if tid, sid, err := telemetry.ParseTraceparent(tp); err == nil {
			return tid, sid
		}
	}
	if rid := r.Header.Get("X-Request-ID"); rid != "" {
		if tid, err := telemetry.ParseTraceID(rid); err == nil {
			return tid, telemetry.SpanID{}
		}
		return telemetry.DeriveTraceID(rid), telemetry.SpanID{}
	}
	return telemetry.NewTraceID(), telemetry.SpanID{}
}

// clientKey identifies the client for rate limiting: the X-Client-ID
// header when present, else the remote address host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// handleSubmit is the admission-controlled upload path:
//
//	draining           → 503 + Retry-After
//	rate limit         → 429 + Retry-After
//	queue full         → 503
//	body over cap      → 413
//	slow/torn body     → 400
//
// An admitted upload is spooled to disk (so the job survives restarts),
// hashed and sniffed for container format on the way, persisted as a
// queued job and enqueued.
// With ?wait=1 the handler blocks until the job finishes; a client that
// disconnects while waiting cancels the job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		w.Header().Set("Retry-After", "5")
		s.reg.Counter("server.rejected_drain").Inc()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if ok, wait := s.limiter.allow(clientKey(r)); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(int(wait/time.Second)+1))
		s.reg.Counter("server.rejected_rate").Inc()
		httpError(w, http.StatusTooManyRequests, "rate limit exceeded, retry in %v", wait.Round(time.Millisecond))
		return
	}
	// Cheap precheck before reading the body; the enqueue below rechecks
	// under the lock.
	if len(s.queue) >= cap(s.queue) {
		s.reg.Counter("server.rejected_queue").Inc()
		httpError(w, http.StatusServiceUnavailable, "job queue full (%d pending)", cap(s.queue))
		return
	}

	// Validate analysis parameters before spooling anything.
	configSpec := r.URL.Query().Get("config")
	if configSpec != "" {
		if _, err := cliutil.ParseConfigSpec(s.cfg.BaseConfig, configSpec); err != nil {
			httpError(w, http.StatusBadRequest, "bad config %q: %v", configSpec, err)
			return
		}
	}
	ruleSrc := r.URL.Query().Get("rule")
	if ruleSrc != "" {
		if _, err := rules.Parse(ruleSrc); err != nil {
			httpError(w, http.StatusBadRequest, "bad rule %q: %v", ruleSrc, err)
			return
		}
	}

	// Read the body under the size cap and the slow-loris deadline.
	if s.cfg.BodyTimeout > 0 {
		rc := http.NewResponseController(w)
		rc.SetReadDeadline(s.cfg.now().Add(s.cfg.BodyTimeout))
		defer rc.SetReadDeadline(time.Time{})
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	tmp, err := os.CreateTemp(filepath.Join(s.cfg.StateDir, "spool"), "upload-*")
	if err != nil {
		httpError(w, http.StatusInternalServerError, "spool: %v", err)
		return
	}
	tmpName := tmp.Name()
	// One pass over the body spools it, hashes it for the result cache
	// and keeps the prefix the format is sniffed from.
	hash := sha256.New()
	var prefix prefixWriter
	buf := copyBufs.Get().(*[]byte)
	n, err := io.CopyBuffer(io.MultiWriter(tmp, hash, &prefix), body, *buf)
	copyBufs.Put(buf)
	cerr := tmp.Close()
	if err != nil || cerr != nil {
		os.Remove(tmpName)
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			s.reg.Counter("server.rejected_size").Inc()
			httpError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d byte limit", s.cfg.MaxBodyBytes)
		case err != nil:
			s.reg.Counter("server.rejected_body").Inc()
			httpError(w, http.StatusBadRequest, "reading upload: %v", err)
		default:
			httpError(w, http.StatusInternalServerError, "spool: %v", cerr)
		}
		return
	}
	if n == 0 {
		os.Remove(tmpName)
		s.reg.Counter("server.rejected_body").Inc()
		httpError(w, http.StatusBadRequest, "empty upload")
		return
	}
	format := trace.DetectFormat(prefix.bytes())

	// Create the job and move the spool into place under its ID.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		os.Remove(tmpName)
		w.Header().Set("Retry-After", "5")
		s.reg.Counter("server.rejected_drain").Inc()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	tid, parentSpan := requestTrace(r)
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	j := &job{
		Job: Job{
			ID:         id,
			State:      StateQueued,
			Format:     format.String(),
			ConfigSpec: configSpec,
			Rule:       ruleSrc,
			Bytes:      n,
			TraceHash:  hex.EncodeToString(hash.Sum(nil)),
			TraceID:    tid.String(),
			Submitted:  s.cfg.now().UTC(),
		},
		done: make(chan struct{}),
	}
	if !parentSpan.IsZero() {
		j.ParentSpan = parentSpan.String()
	}
	if err := os.Rename(tmpName, s.spoolPath(id)); err != nil {
		s.seq--
		s.mu.Unlock()
		os.Remove(tmpName)
		httpError(w, http.StatusInternalServerError, "spool: %v", err)
		return
	}
	// Counted before a worker can take it off the queue.
	s.move("", StateQueued)
	select {
	case s.queue <- j:
	default:
		s.move(StateQueued, "")
		s.seq--
		s.mu.Unlock()
		os.Remove(s.spoolPath(id))
		s.reg.Counter("server.rejected_queue").Inc()
		httpError(w, http.StatusServiceUnavailable, "job queue full (%d pending)", cap(s.queue))
		return
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.persist(j)
	s.reg.Counter("server.uploads").Inc()
	s.log.Info("job accepted", "job", id, "bytes", n, "format", j.Format, "trace", j.TraceID)

	w.Header().Set("X-Trace-ID", j.TraceID)
	if r.URL.Query().Get("wait") != "" {
		s.waitForJob(w, r, j)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/jobs/"+id)
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, j.view())
}

// copyBufs recycles the buffer uploads are spooled through.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// prefixWriter keeps the first bytes written through it: enough of the
// upload to sniff its container format.
type prefixWriter struct {
	buf [trace.BinaryMagicLen]byte
	n   int
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.n += copy(p.buf[p.n:], b)
	return len(b), nil
}

func (p *prefixWriter) bytes() []byte { return p.buf[:p.n] }

// waitForJob services ?wait=1: block until the job reaches a terminal
// state, canceling it if the waiting client disconnects first.
func (s *Server) waitForJob(w http.ResponseWriter, r *http.Request, j *job) {
	select {
	case <-j.done:
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, j.view())
	case <-r.Context().Done():
		// The uploader hung up; their job goes with them.
		s.cancelJob(j, "client disconnected")
	case <-s.baseCtx.Done():
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "server is draining; job %s will resume after restart", j.ID)
	}
}

// cancelJob requests cancellation of a queued or running job.
func (s *Server) cancelJob(j *job, reason string) bool {
	j.mu.Lock()
	if j.State.terminal() {
		j.mu.Unlock()
		return false
	}
	j.userCancel = true
	cancel := j.cancel
	if j.State == StateQueued {
		// Never started: transition directly; the worker will skip it.
		j.State = StateCanceled
		s.move(StateQueued, StateCanceled)
		j.Error = reason
		j.Finished = s.cfg.now()
		s.reg.Counter("server.jobs_canceled").Inc()
		j.mu.Unlock()
		s.persist(j)
		s.removeSpool(j.ID)
		close(j.done)
		return true
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	views := make([]jobView, 0, len(ids))
	for _, id := range ids {
		if j := s.lookup(id); j != nil {
			views = append(views, j.view())
		}
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if !s.cancelJob(j, "canceled by client") {
		httpError(w, http.StatusConflict, "job already finished")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, j.view())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	rec := j.Job
	j.mu.Unlock()
	if rec.State != StateDone {
		httpError(w, http.StatusConflict, "job is %s, report only exists once done", rec.State)
		return
	}
	// ?format=json (or an Accept asking for JSON) returns the full job
	// record — report inline plus trace ID and resource accounting — for
	// machine consumers; the default stays the plain-text report.
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, rec)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, rec.Report)
}

// wantPrometheus decides the /metrics representation: ?format=prom (or
// prometheus) forces the text exposition, ?format=json forces JSON, and
// with no format parameter an Accept header naming openmetrics or
// text/plain opts in. The default — including curl's Accept: */* — stays
// the JSON snapshot, so existing scrapers are unaffected.
func wantPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "":
	default:
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/openmetrics-text") ||
		strings.Contains(accept, "text/plain")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantPrometheus(r) {
		w.Header().Set("Content-Type", telemetry.PromContentType)
		if err := s.reg.WritePrometheus(w, "tracedstd"); err != nil {
			s.log.Error("metrics write failed", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := s.reg.Snapshot("tracedstd").WriteTo(w); err != nil {
		s.log.Error("metrics write failed", "err", err)
	}
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.isDraining() {
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]int64{"queued": s.queued.Value(), "running": s.running.Value(), "workers": int64(s.cfg.Workers)})
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: new submissions are refused, running jobs
// are interrupted and reverted to queued (persisted), and workers are
// awaited until ctx expires. A server restarted on the same StateDir
// re-adopts everything in flight.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.queue) // workers exit once the backlog is drained or skipped
	s.mu.Unlock()

	s.baseCancel() // running jobs observe cancellation between batches
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete")
		return nil
	case <-ctx.Done():
		s.log.Warn("drain timed out with workers still running")
		return ctx.Err()
	}
}
