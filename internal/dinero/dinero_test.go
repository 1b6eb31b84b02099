package dinero

import (
	"strings"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

func sim(t *testing.T, opts Options) *Simulator {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rec(t *testing.T, line string) trace.Record {
	t.Helper()
	r, err := trace.ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFeedBasicAttribution(t *testing.T) {
	s := sim(t, Options{L1: cache.Paper32KDirect()})
	s.Feed(&[]trace.Record{rec(t, "S 000601040 4 main GV glScalar")}[0])
	s.Feed(&[]trace.Record{rec(t, "L 000601040 4 main GV glScalar")}[0])
	s.Feed(&[]trace.Record{rec(t, "L 7ff000480 8 main")}[0])

	vs := s.Var("glScalar")
	if vs == nil || vs.Accesses != 2 || vs.Hits != 1 || vs.Misses != 1 {
		t.Errorf("glScalar = %+v", vs)
	}
	if ns := s.Var(NoSymbol); ns == nil || ns.Accesses != 1 {
		t.Errorf("nosym = %+v", ns)
	}
	fs := s.Funcs()
	if len(fs) != 1 || fs[0].Name != "main" || fs[0].Accesses != 3 {
		t.Errorf("funcs = %+v", fs)
	}
	if s.Records() != 3 {
		t.Errorf("records = %d", s.Records())
	}
}

func TestModifyCountsReadAndWrite(t *testing.T) {
	s := sim(t, Options{L1: cache.Paper32KDirect()})
	r := rec(t, "M 7ff0001b8 4 main LV 0 1 i")
	s.Feed(&r)
	vs := s.Var("i")
	if vs.Accesses != 2 || vs.Misses != 1 || vs.Hits != 1 {
		t.Errorf("modify accounting = %+v", vs)
	}
	st := s.L1().Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestMiscIgnored(t *testing.T) {
	s := sim(t, Options{L1: cache.Paper32KDirect()})
	r := rec(t, "X 7ff0001b8 4 main")
	s.Feed(&r)
	if s.L1().Stats().Accesses() != 0 {
		t.Error("X record touched the cache")
	}
	if s.Records() != 1 {
		t.Error("X record not counted")
	}
}

func TestPerSetSeries(t *testing.T) {
	s := sim(t, Options{L1: cache.Config{Size: 256, BlockSize: 32, Assoc: 1}})
	// Set = (addr>>5) & 7. addr 0x40 → set 2.
	r := rec(t, "S 000000040 4 main GV v")
	s.Feed(&r)
	vs := s.Var("v")
	if vs.PerSet[2].Misses != 1 {
		t.Errorf("per-set = %+v", vs.PerSet)
	}
}

func TestConflictMatrix(t *testing.T) {
	// Direct-mapped 256B cache: addresses 256 apart collide.
	s := sim(t, Options{L1: cache.Config{Size: 256, BlockSize: 32, Assoc: 1}})
	a := rec(t, "L 000000000 4 main GV a")
	b := rec(t, "L 000000100 4 main GV b")
	s.Feed(&a)
	s.Feed(&b) // b evicts a
	s.Feed(&a) // a evicts b
	cs := s.Conflicts()
	if len(cs) != 2 {
		t.Fatalf("conflicts = %+v", cs)
	}
	for _, c := range cs {
		if c.Count != 1 {
			t.Errorf("conflict count = %+v", c)
		}
	}
	// Deterministic order: counts equal → lexicographic by evictor.
	if cs[0].Evictor != "a" || cs[1].Evictor != "b" {
		t.Errorf("order = %+v", cs)
	}
}

func TestSelfEvictionNotAConflict(t *testing.T) {
	s := sim(t, Options{L1: cache.Config{Size: 256, BlockSize: 32, Assoc: 1}})
	a1 := rec(t, "L 000000000 4 main GV big")
	a2 := rec(t, "L 000000100 4 main GV big")
	s.Feed(&a1)
	s.Feed(&a2)
	if len(s.Conflicts()) != 0 {
		t.Errorf("self-conflict recorded: %+v", s.Conflicts())
	}
}

func TestTwoLevelHierarchy(t *testing.T) {
	l2 := cache.Config{Name: "l2", Size: 64 * 1024, BlockSize: 64, Assoc: 8}
	s := sim(t, Options{L1: cache.Paper32KDirect(), L2: &l2})
	r := rec(t, "L 000601040 4 main GV g")
	s.Feed(&r)
	if s.L2() == nil || s.L2().Stats().Reads != 1 {
		t.Error("L2 did not see the fill")
	}
	rep := s.Report()
	if !strings.Contains(rep, "l2-unified") {
		t.Error("report missing L2 section")
	}
}

func TestProcessReaderAndReport(t *testing.T) {
	res, err := tracer.Run(workloads.Trans1SoA, map[string]string{"LEN": "16"}, tracer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := sim(t, Options{L1: cache.Paper32KDirect()})
	s.Process(res.Records)

	rep := s.Report()
	for _, want := range []string{"lSoA", "lI", "main", "Per-variable", "Per-function", "Demand Fetches"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// lI is touched far more often than lSoA (loop bookkeeping).
	li, soa := s.Var("lI"), s.Var("lSoA")
	if li == nil || soa == nil {
		t.Fatal("missing series")
	}
	if li.Accesses <= soa.Accesses {
		t.Errorf("lI %d accesses vs lSoA %d", li.Accesses, soa.Accesses)
	}
	// Vars sorted by descending accesses: lI first.
	if vars := s.Vars(); vars[0].Name != "lI" {
		t.Errorf("vars[0] = %s", vars[0].Name)
	}
	// The SoA structure spans (16*4 + 16*8) = 192 bytes: 6 blocks when
	// 32-byte aligned, 7 when it straddles (it is only 8-byte aligned).
	occupied := 0
	for _, ps := range soa.PerSet {
		if ps.Hits+ps.Misses > 0 {
			occupied++
		}
	}
	if occupied == 0 || occupied > 7 {
		t.Errorf("lSoA occupies %d sets, want 1..7", occupied)
	}
}

func TestProcessReaderStream(t *testing.T) {
	const src = `START PID 7
S 000601040 4 main GV g
L 000601040 4 main GV g
`
	s := sim(t, Options{L1: cache.Paper32KDirect()})
	if err := s.ProcessSource(trace.NewReader(strings.NewReader(src))); err != nil {
		t.Fatal(err)
	}
	if s.Records() != 2 {
		t.Errorf("records = %d", s.Records())
	}
}

func TestProcessReaderPropagatesError(t *testing.T) {
	s := sim(t, Options{L1: cache.Paper32KDirect()})
	err := s.ProcessSource(trace.NewReader(strings.NewReader("START PID 1\ngarbage zz yy\n")))
	if err == nil {
		t.Error("malformed trace accepted")
	}
}

func TestNewValidatesConfigs(t *testing.T) {
	if _, err := New(Options{L1: cache.Config{Size: 100, BlockSize: 32, Assoc: 1}}); err == nil {
		t.Error("bad L1 accepted")
	}
	bad := cache.Config{Size: 100, BlockSize: 32, Assoc: 1}
	if _, err := New(Options{L1: cache.Paper32KDirect(), L2: &bad}); err == nil {
		t.Error("bad L2 accepted")
	}
}

// TestZeroRecordReport: a zero Record, which holds no site, simulates as a
// Record with empty inline names did: counted, never cached, attributed
// to no function or variable.
func TestZeroRecordReport(t *testing.T) {
	sim, err := New(Options{L1: cache.Config{Size: 1024, BlockSize: 32, Assoc: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sim.Process([]trace.Record{{}})
	want := "---Simulation begins.\n" +
		"l1-dcache: 1024 bytes, 32-byte blocks, 1-way, LRU replacement, write-back, write-allocate\n" +
		"l1-data\n" +
		" Metrics               Total      Fetch       Read      Write\n" +
		" -----------------  --------   --------   --------   --------\n" +
		" Demand Fetches             0          0          0          0\n" +
		" Demand Misses              0          0          0          0\n" +
		" Demand Miss Rate      0.0000     0.0000     0.0000     0.0000\n" +
		" Evictions                  0   (writebacks 0)\n" +
		"\n" +
		"Per-function statistics\n" +
		" function                   accesses       hits     misses    miss%\n" +
		"\n" +
		"Per-variable statistics\n" +
		" variable                   accesses       hits     misses    miss%\n" +
		"---Simulation complete.\n"
	if got := sim.Report(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}
