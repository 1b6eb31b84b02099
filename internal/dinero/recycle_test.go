package dinero

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/ctype"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// dropIdleSims empties the idle list, so the next NewMulti makes its state.
func dropIdleSims() {
	idleSims.Lock()
	clear(idleSims.list)
	idleSims.list = idleSims.list[:0]
	idleSims.Unlock()
}

// idleSimCount is how many states the idle list holds.
func idleSimCount() int {
	idleSims.Lock()
	defer idleSims.Unlock()
	return len(idleSims.list)
}

// varRow is a VarSeries' exported content.
type varRow struct {
	Name                   string
	Accesses, Hits, Misses int64
	PerSet                 []cache.SetStats
	PageAllocs             int64
}

// simResult is everything a finished run reports, copied out of it.
type simResult struct {
	Stats     []cache.Stats
	Vars      [][]varRow
	Funcs     [][]FuncStats
	Conflicts [][]Conflict
	Reports   []string
	Records   int64
}

func resultOf(m *MultiSim) simResult {
	var r simResult
	for i := 0; i < m.NumConfigs(); i++ {
		st := m.Stats(i)
		st.PerSet = append([]cache.SetStats(nil), st.PerSet...)
		r.Stats = append(r.Stats, st)
		var rows []varRow
		for _, vs := range m.Vars(i) {
			rows = append(rows, varRow{vs.Name, vs.Accesses, vs.Hits, vs.Misses, append([]cache.SetStats(nil), vs.PerSet...), vs.PageAllocs})
		}
		r.Vars = append(r.Vars, rows)
		var funcs []FuncStats
		for _, fs := range m.Funcs(i) {
			funcs = append(funcs, *fs)
		}
		r.Funcs = append(r.Funcs, funcs)
		r.Conflicts = append(r.Conflicts, m.Conflicts(i))
		r.Reports = append(r.Reports, m.Report(i))
	}
	r.Records = m.Records()
	return r
}

// runMulti simulates recs on a new MultiSim, split in two halves merged
// with MergeFrom when merged is set, and returns the simulator.
func runMulti(t *testing.T, opts MultiOptions, recs []trace.Record, merged bool) *MultiSim {
	t.Helper()
	a, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !merged {
		a.Process(recs)
		return a
	}
	b, err := NewMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	a.Process(recs[:len(recs)/3])
	b.Process(recs[len(recs)/3:])
	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	b.Release()
	return a
}

// recycleCases are config lists run one after another: they grow, shrink
// and change geometry, mix the kernel's replacement policies (random
// reseeded), write-back and write-through, and configs on the reference
// engine, with and without attribution.
func recycleCases() []MultiOptions {
	all := multiTestConfigs()
	random := cache.Config{Size: 2048, BlockSize: 32, Assoc: 4, Repl: cache.ReplRandom, Seed: 9}
	return []MultiOptions{
		{Configs: all},
		{Configs: all[:2], StatsOnly: true},
		{Configs: []cache.Config{random, all[4], {Size: 65536, BlockSize: 64, Assoc: 1}}},
		{Configs: []cache.Config{cache.Paper32KDirect()}},
		{Configs: append([]cache.Config{random, {Size: 512, BlockSize: 16, Assoc: 2, Repl: cache.ReplFIFO, Write: cache.WriteThrough}}, all...)},
		{Configs: []cache.Config{all[2], random}, StatsOnly: true},
	}
}

// TestRecycledMultiSimIsNew: a MultiSim built on the state of one released
// after another trace over another config list reports exactly what one
// built with no idle state reports — statistics with per-set counts,
// variables with their series, functions, conflicts and reports — alone
// and after MergeFrom, and equals independent reference-engine runs. The
// kernel's arrays have their own test in package cache.
func TestRecycledMultiSimIsNew(t *testing.T) {
	cases := recycleCases()
	recs := multiRecords(6000, 10)
	dirty := multiRecords(4000, 40)
	for k, opts := range cases {
		prev := cases[(k+len(cases)-1)%len(cases)]
		for _, merged := range []bool{false, true} {
			name := fmt.Sprintf("case %d merged=%t", k, merged)
			dropIdleSims()
			fresh := runMulti(t, opts, recs, merged)
			want := resultOf(fresh)

			// Leave states that ran another trace on other configs idle.
			a, b := runMulti(t, prev, dirty, false), runMulti(t, prev, dirty, false)
			a.Release()
			b.Release()
			recycled := runMulti(t, opts, recs, merged)
			got := resultOf(recycled)
			if !reflect.DeepEqual(got, want) {
				for i := range opts.Configs {
					if got.Reports[i] != want.Reports[i] {
						t.Errorf("%s config %d: recycled report differs:\n--- recycled ---\n%s\n--- new ---\n%s", name, i, got.Reports[i], want.Reports[i])
					}
				}
				t.Errorf("%s: a recycled simulator's results differ from a new one's", name)
			}
			if !merged && !opts.StatsOnly {
				for i, cfg := range opts.Configs {
					ref, err := New(Options{L1: cfg})
					if err != nil {
						t.Fatal(err)
					}
					ref.Process(recs)
					if ref.Report() != got.Reports[i] {
						t.Errorf("%s config %d: report differs from a reference-engine run", name, i)
					}
				}
			}
			fresh.Release()
			recycled.Release()
		}
	}
}

// TestRecycledPagesNotAllocated: a run on a recycled state takes its
// series pages from the state, so it makes at least one allocation per
// page fewer than the same run on a new state.
func TestRecycledPagesNotAllocated(t *testing.T) {
	recs := multiRecords(20000, 40)
	opts := MultiOptions{Configs: []cache.Config{{Size: 65536, BlockSize: 32, Assoc: 1}}}
	var pages int64
	run := func() {
		m, err := NewMulti(opts)
		if err != nil {
			t.Fatal(err)
		}
		m.Process(recs)
		pages = m.PageAllocs()
		m.Release()
	}
	fresh := testing.AllocsPerRun(5, func() {
		dropIdleSims()
		run()
	})
	recycled := testing.AllocsPerRun(5, run)
	t.Logf("a run over %d pages made %.0f allocations on a new state, %.0f on a recycled one", pages, fresh, recycled)
	if fresh-recycled < float64(pages) {
		t.Errorf("a recycled run saved %.0f allocations, want at least its %d pages", fresh-recycled, pages)
	}
}

// TestIdleSimsBounded: the idle list holds no more states than were live
// at once, however often they are taken and released, and drops a state
// holding more than maxIdlePages pages.
func TestIdleSimsBounded(t *testing.T) {
	dropIdleSims()
	opts := MultiOptions{Configs: multiTestConfigs()[:2]}
	build := func(n int) []*MultiSim {
		sims := make([]*MultiSim, n)
		for i := range sims {
			sims[i] = runMulti(t, opts, multiRecords(500, 4), false)
		}
		return sims
	}
	release := func(sims []*MultiSim) {
		for _, m := range sims {
			m.Release()
		}
	}
	release(build(3))
	for i := 0; i < 20; i++ {
		release(build(1 + i%3))
		if n := idleSimCount(); n != 3 {
			t.Fatalf("round %d: %d idle states, want 3 (the most live at once)", i, n)
		}
	}

	// Five variables each touch every 64th of 65,536 sets: one new page
	// per record, 5,120 pages in all.
	var recs []trace.Record
	for v := 0; v < 5; v++ {
		for j := 0; j < 1024; j++ {
			recs = append(recs, trace.Record{Op: trace.Load, Addr: uint64(j) * 64 * 32, Size: 4, Site: trace.NewSite("f", ctype.AccessExpr{Root: fmt.Sprint("v", v)}),
				HasSym: true, Vis: trace.Global})
		}
	}
	big := runMulti(t, MultiOptions{Configs: []cache.Config{{Size: 2 << 20, BlockSize: 32, Assoc: 1}}}, recs, false)
	if n := big.PageAllocs(); n <= maxIdlePages {
		t.Fatalf("big run counted in %d pages, not over the %d cap", n, maxIdlePages)
	}
	before := idleSimCount()
	big.Release()
	if n := idleSimCount(); n != before {
		t.Errorf("a state over the cap was kept: %d idle states, want %d", n, before)
	}
}

// TestReleasedMultiSimPanics: a released MultiSim panics on use rather
// than reach state another simulator may own, and a second Release gives
// nothing back again.
func TestReleasedMultiSimPanics(t *testing.T) {
	dropIdleSims()
	m := runMulti(t, MultiOptions{Configs: multiTestConfigs()}, multiRecords(500, 4), false)
	other := runMulti(t, MultiOptions{Configs: multiTestConfigs()}, multiRecords(500, 4), false)
	m.Release()
	m.Release()
	if n := idleSimCount(); n != 1 {
		t.Errorf("two Releases left %d idle states, want 1", n)
	}
	rec := multiRecords(1, 1)[0]
	for name, use := range map[string]func(){
		"Feed":             func() { m.Feed(&rec) },
		"Process":          func() { m.Process([]trace.Record{rec}) },
		"ProcessSource":    func() { m.ProcessSource(trace.NewSliceSource(trace.Header{}, false, nil, 0)) },
		"Flush":            func() { m.Flush() },
		"Stats":            func() { m.Stats(0) },
		"ScaledStats":      func() { m.ScaledStats(0) },
		"Report":           func() { m.Report(0) },
		"Vars":             func() { m.Vars(0) },
		"Funcs":            func() { m.Funcs(0) },
		"Conflicts":        func() { m.Conflicts(0) },
		"MergeFrom":        func() { m.MergeFrom(other) },
		"MergeFrom(other)": func() { other.MergeFrom(m) },
		"NumConfigs":       func() { m.NumConfigs() },
		"Config":           func() { m.Config(0) },
		"Records":          func() { m.Records() },
		"SimulatedRecords": func() { m.SimulatedRecords() },
		"RecordScale":      func() { m.RecordScale() },
		"PageAllocs":       func() { m.PageAllocs() },
		"PublishTelemetry": func() { m.PublishTelemetry(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released MultiSim did not panic", name)
				}
			}()
			use()
		}()
	}
	other.Release()
}

// TestRecycledMultiSimConcurrent: goroutines that build, feed, read and
// release simulators at once — serial runs and sharded ones, whose merged
// shards are released — each see exactly their own run's reports.
func TestRecycledMultiSimConcurrent(t *testing.T) {
	const goroutines, rounds = 6, 8
	cases := recycleCases()
	recs := [][]trace.Record{multiRecords(1200, 6), multiRecords(800, 30)}
	want := make([][][]string, len(cases))
	for c, opts := range cases {
		for _, r := range recs {
			m := runMulti(t, opts, r, false)
			want[c] = append(want[c], resultOf(m).Reports)
			m.Release()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c, k := (g+r)%len(cases), (g+r/len(cases))%len(recs)
				m, err := NewMulti(cases[c])
				if err != nil {
					t.Error(err)
					return
				}
				if g%2 == 1 {
					res, err := MultiSimShardedRecords(context.Background(), recs[k], MultiOptions{Configs: cases[c].Configs, StatsOnly: cases[c].StatsOnly}, 2)
					if err != nil {
						t.Error(err)
						return
					}
					res.Sim.Release()
				}
				m.Process(recs[k])
				for i, w := range want[c][k] {
					if got := m.Report(i); got != w {
						t.Errorf("goroutine %d round %d: case %d config %d report differs from its serial run", g, r, c, i)
						return
					}
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
}

// TestShardedRunReleasesMergedShards: a sharded run releases every shard
// it merged away and keeps the merged one, so repeated runs, each
// releasing its result, make no state after the first.
func TestShardedRunReleasesMergedShards(t *testing.T) {
	dropIdleSims()
	opts := MultiOptions{Configs: multiTestConfigs()}
	recs := multiRecords(3000, 8)
	res, err := MultiSimShardedRecords(context.Background(), recs, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := idleSimCount(); n != 2 {
		t.Errorf("a 3-shard run left %d idle states, want 2 (the shards merged away)", n)
	}
	want := resultOf(res.Sim)
	res.Sim.Release()
	states := telemetry.Default().Counter("multisim.states")
	before := states.Value()
	for i := 0; i < 5; i++ {
		res, err := MultiSimShardedRecords(context.Background(), recs, opts, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultOf(res.Sim); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d on recycled states differs from the first", i)
		}
		res.Sim.Release()
	}
	if made := states.Value() - before; made != 0 {
		t.Errorf("5 sharded runs on recycled states made %d states, want 0", made)
	}
}
