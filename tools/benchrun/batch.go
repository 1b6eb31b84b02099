package main

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/cliutil"
	"tracedst/internal/dinero"
	"tracedst/internal/rules"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
	"tracedst/internal/xform"
)

// goldenConfigs are the three geometries of the repository's golden
// tests: direct-mapped, 2-way LRU and the paper's 64-way round-robin.
var goldenConfigs = []cache.Config{
	{Name: "dm-4k", Size: 4096, BlockSize: 32, Assoc: 1, Repl: cache.ReplLRU},
	{Name: "lru-8k-2w", Size: 8192, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU},
	{Name: "rr-32k-64w", Size: 32768, BlockSize: 32, Assoc: 64, Repl: cache.ReplRoundRobin},
}

// minPasses bounds a batch window from below, so even a short window has
// a median.
const minPasses = 3

// kernelReplays is how many bare-kernel replays a traced batch window
// adds after its passes, to split simulation time into kernel and the
// rest.
const kernelReplays = 3

// passLoop runs pass for d (at least minPasses times). With a log, each
// pass runs under its own root span.
func passLoop(d time.Duration, log *spanLog, pass func(sp *span) (int64, error)) *window {
	w := &window{}
	var busy float64 // ms spent in passes that succeeded
	start := time.Now()
	for w.attempted < minPasses || time.Since(start) < d {
		if w.timePass(log, pass) > 0 {
			busy += w.lat[len(w.lat)-1]
		}
	}
	w.recPerS = float64(w.records) / (busy / 1000)
	return w
}

// timePass runs and times one pass, under a root span when log is set,
// and returns how many records it covered (0 when it failed).
func (w *window) timePass(log *spanLog, pass func(sp *span) (int64, error)) int64 {
	sp := log.root("bench.pass")
	t0 := time.Now()
	n, err := pass(sp)
	ms := sinceMS(t0)
	sp.end()
	w.attempted++
	if err != nil {
		w.fail(err)
		return 0
	}
	w.lat = append(w.lat, ms)
	w.records += n
	return n
}

// pairedLoop is passLoop for a traced window: every traced pass runs
// next to an untraced pass of the operation the untraced window measures,
// in alternating order, so the tracing overhead is measured between
// neighbouring passes rather than between windows the host's load may
// have drifted between. It returns the traced window (which also counts
// the untraced passes' failures) and the untraced passes' latencies.
func pairedLoop(d time.Duration, log *spanLog, traced, untraced func(sp *span) (int64, error)) (*window, []float64) {
	w, plain := &window{}, &window{}
	start := time.Now()
	for w.attempted < minPasses || time.Since(start) < d {
		if w.attempted%2 == 0 {
			plain.timePass(nil, untraced)
			w.timePass(log, traced)
		} else {
			w.timePass(log, traced)
			plain.timePass(nil, untraced)
		}
	}
	w.attempted += plain.attempted
	w.failed += plain.failed
	w.errs = append(w.errs, plain.errs...)
	return w, plain.lat
}

// overheadPct is how much slower, in percent, a traced pass ran than the
// untraced pass next to it: the median over the pairs, so noise the host
// adds to both passes of a pair cancels.
func overheadPct(w *window, plain []float64) float64 {
	var ratios []float64
	for i := range plain {
		if i < len(w.lat) {
			ratios = append(ratios, w.lat[i]/plain[i])
		}
	}
	return 100 * (median(ratios) - 1)
}

// replayKernel feeds recs into a bare multi-config cache kernel with the
// same op dispatch as dinero.MultiSim.Feed, minus translation, symbol
// resolution and attribution.
func replayKernel(k *cache.MultiSim, recs []trace.Record) {
	for i := range recs {
		r := &recs[i]
		switch r.Op {
		case trace.Load:
			k.Access(cache.Read, r.Addr, r.Size, cache.NoOwner, nil)
		case trace.Store:
			k.Access(cache.Write, r.Addr, r.Size, cache.NoOwner, nil)
		case trace.Modify:
			k.Access(cache.Read, r.Addr, r.Size, cache.NoOwner, nil)
			k.Access(cache.Write, r.Addr, r.Size, cache.NoOwner, nil)
		}
	}
}

// missCounts returns each config's miss count of a multi-config
// simulator: the dinero engine or the bare cache kernel.
func missCounts(s interface {
	NumConfigs() int
	Stats(int) cache.Stats
}) []int64 {
	out := make([]int64, s.NumConfigs())
	for i := range out {
		out[i] = s.Stats(i).Misses()
	}
	return out
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// forEachBatch drains src through fn, timing each NextBatch under a
// trace.decode span.
func forEachBatch(src trace.RecordSource, sp *span, fn func([]trace.Record)) error {
	for {
		d := sp.child("trace.decode")
		batch, err := src.NextBatch()
		d.end()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(batch)
	}
}

// serialReports is the glb-* oracle: path simulated on one independent
// dinero.Simulator per config — the per-config engine MultiSim must match
// byte for byte — with every simulator flushed at the given record
// indices.
func serialReports(path string, cfgs []cache.Config, flushAt []int64) ([]string, error) {
	sims := make([]*dinero.Simulator, len(cfgs))
	for i, cfg := range cfgs {
		s, err := dinero.New(dinero.Options{L1: cfg})
		if err != nil {
			return nil, err
		}
		sims[i] = s
	}
	ts, err := cliutil.OpenTraceSource(path, trace.DecodeOptions{})
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	var pos int64
	err = forEachBatch(ts, nil, func(batch []trace.Record) {
		for i := range batch {
			if len(flushAt) > 0 && pos == flushAt[0] {
				for _, s := range sims {
					s.Flush()
				}
				flushAt = flushAt[1:]
			}
			for _, s := range sims {
				s.Feed(&batch[i])
			}
			pos++
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(sims))
	for i, s := range sims {
		out[i] = s.Report()
	}
	return out, nil
}

// reports renders every config's report under a dinero.report span.
func reports(ms *dinero.MultiSim, sp *span) []string {
	r := sp.child("dinero.report")
	defer r.end()
	out := make([]string, ms.NumConfigs())
	for i := range out {
		out[i] = ms.Report(i)
	}
	return out
}

func sameReports(got, want []string) error {
	for i := range want {
		if got[i] != want[i] {
			return mismatch("report of %s", goldenConfigs[i].Name)
		}
	}
	return nil
}

// glbBench holds what both glb-* workloads share: the mixed trace and its
// serial reference reports.
type glbBench struct {
	path    string
	records int64
	want    []string
	misses  []int64 // per-config misses of the latest pass
}

func newGLBBench(rc *runConfig, dir string) (*glbBench, error) {
	path, n, err := buildMixedGLB(dir, rc.rng())
	if err != nil {
		return nil, err
	}
	return &glbBench{path: path, records: n}, nil
}

func (g *glbBench) close() {}

// replays runs kernelReplays bare-kernel passes over the trace, each
// under a bench.replay root span, and checks the kernel's misses against
// the engine's. The kernel is flushed at the given record indices, which
// fall on batch boundaries.
func (g *glbBench) replays(log *spanLog, flushAt []int64) error {
	for i := 0; i < kernelReplays; i++ {
		sp := log.root("bench.replay")
		k, err := cache.NewMultiSim(goldenConfigs, 0)
		if err != nil {
			return err
		}
		ts, err := cliutil.OpenTraceSource(g.path, trace.DecodeOptions{})
		if err != nil {
			return err
		}
		var pos int64
		at := flushAt
		err = forEachBatch(ts, nil, func(batch []trace.Record) {
			if len(at) > 0 && pos == at[0] {
				k.Flush()
				at = at[1:]
			}
			kr := sp.child("cache.kernel")
			replayKernel(k, batch)
			kr.end()
			pos += int64(len(batch))
		})
		ts.Close()
		sp.end()
		if err != nil {
			return err
		}
		if got := missCounts(k); !slices.Equal(got, g.misses) {
			return mismatch("bare kernel misses %v, engine %v", got, g.misses)
		}
	}
	return nil
}

// passWall returns the traced window's passes and their total wall time.
func passWall(ix *spanIndex) (passes float64, wallNS float64) {
	for _, p := range ix.named("bench.pass") {
		passes++
		wallNS += float64(p.WallNS())
	}
	return passes, wallNS
}

// coverage is the share of the passes' wall time that the spans directly
// under them account for: how completely the layers add up to the
// end-to-end time.
func coverage(ix *spanIndex) float64 {
	var covered float64
	for _, p := range ix.named("bench.pass") {
		covered += float64(ix.coveredNS(p))
	}
	_, wall := passWall(ix)
	return covered / wall
}

// glbLayers derives the per-layer metrics both glb-* workloads share.
func (g *glbBench) glbLayers(ix *spanIndex) map[string]float64 {
	passes, wall := passWall(ix)
	recs := float64(g.records) * passes
	cfgs := float64(len(goldenConfigs))
	decode := float64(ix.busyNS("trace.decode"))
	sim := float64(ix.busyNS("dinero.new") + ix.busyNS("dinero.process"))
	kernel := float64(ix.busyNS("cache.kernel")) / (float64(g.records) * kernelReplays * cfgs)
	return map[string]float64{
		"layers.coverage":            coverage(ix),
		"trace.decode.ns_per_rec":    decode / recs,
		"trace.decode.share":         decode / wall,
		"dinero.sim.ns_per_rec":      sim / recs,
		"cache.kernel.ns_per_cfgrec": kernel,
		"dinero.attrib.ns_per_rec":   sim/recs - kernel*cfgs,
		"dinero.report.ms":           float64(ix.busyNS("dinero.report")) / passes / 1e6,
		"cache.misses_total":         float64(sum(g.misses)),
	}
}

// attribBench is glb-attrib: one streaming, full-attribution pass over
// the mixed .glb on the three golden configs.
type attribBench struct{ *glbBench }

func setupAttrib(rc *runConfig, dir string) (instance, error) {
	g, err := newGLBBench(rc, dir)
	return &attribBench{g}, err
}

func (b *attribBench) reference() (err error) {
	b.want, err = serialReports(b.path, goldenConfigs, nil)
	return err
}

func (b *attribBench) warm() error { _, err := b.pass(nil); return err }

func (b *attribBench) measure(d time.Duration) *window {
	return passLoop(d, nil, b.pass)
}

// pass is the operation: open the trace, stream it through a MultiSim
// with full attribution, render every report.
func (b *attribBench) pass(sp *span) (int64, error) {
	o := sp.child("trace.decode")
	ts, err := cliutil.OpenTraceSource(b.path, trace.DecodeOptions{})
	o.end()
	if err != nil {
		return 0, err
	}
	defer ts.Close()
	n := sp.child("dinero.new")
	ms, err := dinero.NewMulti(dinero.MultiOptions{Configs: goldenConfigs})
	n.end()
	if err != nil {
		return 0, err
	}
	err = forEachBatch(ts, sp, func(batch []trace.Record) {
		p := sp.child("dinero.process")
		ms.Process(batch)
		p.end()
	})
	if err != nil {
		return 0, err
	}
	got := reports(ms, sp)
	c := sp.child("trace.decode")
	err = ts.Close()
	c.end()
	if err != nil {
		return 0, err
	}
	b.misses = missCounts(ms)
	return ms.Records(), sameReports(got, b.want)
}

func (b *attribBench) traced(d time.Duration, log *spanLog, _ *window) (*window, map[string]float64, error) {
	mark := log.mark()
	w, plain := pairedLoop(d, log, b.pass, b.pass)
	if err := b.replays(log, nil); err != nil {
		return nil, nil, err
	}
	l := b.glbLayers(newSpanIndex(log.since(mark)))
	l["trace_overhead_pct"] = overheadPct(w, plain)
	return w, l, nil
}

// shardedBench is glb-sharded: the same trace through
// dinero.MultiSimSharded on two shards.
type shardedBench struct {
	*glbBench
	flushAt   []int64  // record indices of the shard boundaries
	flushWant []string // the serial reports with a flush at every boundary
	inexact   bool     // some pass matched only flushWant
}

// shards is the glb-sharded shard count.
const shards = 2

func setupSharded(rc *runConfig, dir string) (instance, error) {
	g, err := newGLBBench(rc, dir)
	return &shardedBench{glbBench: g}, err
}

// reference computes both references a sharded run may equal: the plain
// serial reports and the serial reports with a cache flush at every shard
// boundary, which is what sharding produces today.
func (b *shardedBench) reference() error {
	want, err := serialReports(b.path, goldenConfigs, nil)
	if err != nil {
		return err
	}
	b.want = want
	tr, err := trace.OpenIndexed(b.path)
	if err != nil {
		return err
	}
	ix := tr.Index()
	for _, r := range tr.ShardRanges(shards)[1:] {
		b.flushAt = append(b.flushAt, sum(ix.Counts[:r[0]]))
	}
	tr.Close()
	b.flushWant, err = serialReports(b.path, goldenConfigs, b.flushAt)
	return err
}

func (b *shardedBench) warm() error { _, err := b.pass(nil); return err }

func (b *shardedBench) measure(d time.Duration) *window {
	return passLoop(d, nil, b.pass)
}

// check compares a sharded pass's reports with the references and notes
// which one matched.
func (b *shardedBench) check(got []string) error {
	if sameReports(got, b.want) == nil {
		return nil
	}
	if err := sameReports(got, b.flushWant); err != nil {
		return err
	}
	b.inexact = true
	return nil
}

// pass is the operation: open the indexed trace, simulate it on two
// shards with full attribution and merge, render every report.
func (b *shardedBench) pass(_ *span) (int64, error) {
	tr, err := trace.OpenIndexed(b.path)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	res, err := dinero.MultiSimSharded(tr, dinero.MultiOptions{Configs: goldenConfigs}, shards, trace.DecodeOptions{})
	if err != nil {
		return 0, err
	}
	got := reports(res.Sim, nil)
	if err := tr.Close(); err != nil {
		return 0, err
	}
	b.misses = missCounts(res.Sim)
	return res.Sim.Records(), b.check(got)
}

// tracedPass replays MultiSimSharded step by step through the public
// pieces it is built from — ShardRanges, one NewMulti and block-range
// Source per shard, MergeFrom — so each step gets its own span. The
// replay must track dinero.MultiSimSharded (internal/dinero/multistream.go):
// each replay is paired with a real MultiSimSharded pass, so a change
// there that the replay does not mirror shows in trace_overhead_pct.
func (b *shardedBench) tracedPass(sp *span) (int64, error) {
	o := sp.child("trace.decode")
	tr, err := trace.OpenIndexed(b.path)
	o.end()
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	ranges := tr.ShardRanges(shards)
	sims := make([]*dinero.MultiSim, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, lo, hi int) {
			defer wg.Done()
			sh := sp.child("dinero.shard")
			defer sh.end()
			ms, err := dinero.NewMulti(dinero.MultiOptions{Configs: goldenConfigs})
			if err != nil {
				errs[i] = err
				return
			}
			sims[i] = ms
			errs[i] = forEachBatch(tr.Source(lo, hi, trace.DecodeOptions{}), sh, func(batch []trace.Record) {
				p := sh.child("dinero.process")
				ms.Process(batch)
				p.end()
			})
		}(i, r[0], r[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	m := sp.child("dinero.merge")
	for _, s := range sims[1:] {
		if err := sims[0].MergeFrom(s); err != nil {
			m.end()
			return 0, err
		}
	}
	m.end()
	got := reports(sims[0], sp)
	c := sp.child("trace.decode")
	err = tr.Close()
	c.end()
	if err != nil {
		return 0, err
	}
	b.misses = missCounts(sims[0])
	return sims[0].Records(), b.check(got)
}

func (b *shardedBench) traced(d time.Duration, log *spanLog, _ *window) (*window, map[string]float64, error) {
	mark := log.mark()
	w, plain := pairedLoop(d, log, b.tracedPass, b.pass)
	var flushAt []int64
	if b.inexact {
		flushAt = b.flushAt
	}
	if err := b.replays(log, flushAt); err != nil {
		return nil, nil, err
	}
	ix := newSpanIndex(log.since(mark))
	var maxMS, skew, merge []float64
	for _, p := range ix.named("bench.pass") {
		var mx, tot int64
		var n int
		for _, k := range ix.kids(p) {
			switch k.Name {
			case "dinero.shard":
				mx = max(mx, k.WallNS())
				tot += k.WallNS()
				n++
			case "dinero.merge":
				merge = append(merge, float64(k.WallNS())/1e6)
			}
		}
		maxMS = append(maxMS, float64(mx)/1e6)
		skew = append(skew, float64(mx)*float64(n)/float64(tot))
	}
	l := b.glbLayers(ix)
	l["trace_overhead_pct"] = overheadPct(w, plain)
	l["dinero.shard.wall_max_ms"] = median(maxMS)
	l["dinero.shard.skew"] = median(skew)
	l["dinero.merge.ms"] = median(merge)
	if !b.inexact {
		l["dinero.shard.exact"] = 1
	}
	return w, l, nil
}

// sweepSpec is one side-by-side layout comparison of layout-sweep: a
// trace, the rule that transforms it, and the geometries both versions
// are simulated on.
type sweepSpec struct {
	orig []trace.Record
	rule rules.Rule
	cfgs []cache.Config
	want [2][]int64 // reference misses: original, transformed
}

// sweepBench is layout-sweep: the paper's loop for one candidate rule on
// in-memory traces — transform, then simulate the original and the
// transformed trace on every geometry in one stats-only pass each.
type sweepBench struct {
	specs   []*sweepSpec
	records int64
	out     int64        // transformed records per pass
	misses  [][2][]int64 // per spec, per side: misses of the latest pass
}

// sweepLen is the array length of both layout-sweep programs.
const sweepLen = 32768

func directMapped(size int64) cache.Config {
	return cache.Config{Size: size, BlockSize: 32, Assoc: 1}
}

func setupSweep(_ *runConfig, _ string) (instance, error) {
	var t1, t3 []cache.Config
	for size := int64(256); size <= 32768; size *= 2 {
		t1 = append(t1, directMapped(size))
	}
	for size := int64(4096); size <= 65536; size *= 2 {
		t3 = append(t3, cache.Config{Size: size, BlockSize: 32, Assoc: 64, Repl: cache.ReplRoundRobin})
	}
	inputs := []struct {
		src  string
		defs map[string]string
		rule string
		cfgs []cache.Config
	}{
		{workloads.Trans1SoA, map[string]string{"LEN": fmt.Sprint(sweepLen)}, workloads.RuleTrans1ForLen(sweepLen), t1},
		{workloads.Trans3Contiguous, map[string]string{"LEN": fmt.Sprint(sweepLen)}, workloads.RuleTrans3ForLen(sweepLen, 16, 8), t3},
	}
	b := &sweepBench{}
	for _, in := range inputs {
		res, err := tracer.Run(in.src, in.defs, tracer.Options{})
		if err != nil {
			return nil, err
		}
		rule, err := rules.Parse(in.rule)
		if err != nil {
			return nil, err
		}
		b.specs = append(b.specs, &sweepSpec{orig: res.Records, rule: rule, cfgs: in.cfgs})
		b.records += int64(len(res.Records))
	}
	b.misses = make([][2][]int64, len(b.specs))
	return b, nil
}

func (b *sweepBench) close() {}

// reference simulates both sides of every spec on one independent
// dinero.Simulator per geometry.
func (b *sweepBench) reference() error {
	for _, s := range b.specs {
		eng, err := xform.New(xform.Options{}, s.rule)
		if err != nil {
			return err
		}
		out, err := eng.TransformAll(s.orig)
		if err != nil {
			return err
		}
		for side, recs := range [2][]trace.Record{s.orig, out} {
			for _, cfg := range s.cfgs {
				sim, err := dinero.New(dinero.Options{L1: cfg})
				if err != nil {
					return err
				}
				sim.Process(recs)
				s.want[side] = append(s.want[side], sim.L1().Stats().Misses())
			}
		}
	}
	return nil
}

func (b *sweepBench) warm() error { _, err := b.pass(nil); return err }

func (b *sweepBench) measure(d time.Duration) *window {
	return passLoop(d, nil, b.pass)
}

// pass is the operation: for every spec, transform the trace and simulate
// the original and the transformed trace on all of its geometries.
func (b *sweepBench) pass(sp *span) (int64, error) {
	b.out = 0
	for si, s := range b.specs {
		x := sp.child("xform")
		eng, err := xform.New(xform.Options{}, s.rule)
		if err != nil {
			x.end()
			return 0, err
		}
		out, err := eng.TransformAll(s.orig)
		x.end()
		if err != nil {
			return 0, err
		}
		b.out += int64(len(out))
		for side, recs := range [2][]trace.Record{s.orig, out} {
			sw := sp.child("dinero.sweep")
			ms, err := dinero.NewMulti(dinero.MultiOptions{Configs: s.cfgs, StatsOnly: true})
			if err != nil {
				sw.end()
				return 0, err
			}
			ms.Process(recs)
			sw.end()
			got := missCounts(ms)
			if !slices.Equal(got, s.want[side]) {
				return 0, mismatch("sweep misses %v, reference %v", got, s.want[side])
			}
			b.misses[si][side] = got
		}
	}
	return b.records, nil
}

func (b *sweepBench) traced(d time.Duration, log *spanLog, _ *window) (*window, map[string]float64, error) {
	mark := log.mark()
	w, plain := pairedLoop(d, log, b.pass, b.pass)
	var cfgRecs float64 // config-records the replays and each pass simulate
	for i := 0; i < kernelReplays; i++ {
		sp := log.root("bench.replay")
		for si, s := range b.specs {
			eng, err := xform.New(xform.Options{}, s.rule)
			if err != nil {
				return nil, nil, err
			}
			out, err := eng.TransformAll(s.orig)
			if err != nil {
				return nil, nil, err
			}
			for side, recs := range [2][]trace.Record{s.orig, out} {
				k, err := cache.NewMultiSim(s.cfgs, 0)
				if err != nil {
					return nil, nil, err
				}
				kr := sp.child("cache.kernel")
				replayKernel(k, recs)
				kr.end()
				if got := missCounts(k); !slices.Equal(got, b.misses[si][side]) {
					return nil, nil, mismatch("bare kernel misses %v, engine %v", got, b.misses[si][side])
				}
				if i == 0 {
					cfgRecs += float64(len(recs) * len(s.cfgs))
				}
			}
		}
		sp.end()
	}
	ix := newSpanIndex(log.since(mark))
	passes, _ := passWall(ix)
	var misses int64
	for _, m := range b.misses {
		misses += sum(m[0]) + sum(m[1])
	}
	return w, map[string]float64{
		"layers.coverage":            coverage(ix),
		"cache.kernel.ns_per_cfgrec": float64(ix.busyNS("cache.kernel")) / (cfgRecs * kernelReplays),
		"xform.ns_per_rec":           float64(ix.busyNS("xform")) / (float64(b.records) * passes),
		"xform.out_per_in":           float64(b.out) / float64(b.records),
		"dinero.sweep.ns_per_cfgrec": float64(ix.busyNS("dinero.sweep")) / (cfgRecs * passes),
		"cache.misses_total":         float64(misses),
		"trace_overhead_pct":         overheadPct(w, plain),
	}, nil
}
