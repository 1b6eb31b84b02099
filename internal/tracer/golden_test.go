package tracer

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"testing"

	"tracedst/internal/trace"
	"tracedst/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestListing1Golden pins the exact trace of the paper's Listing 1 —
// addresses, metadata, ordering, everything. Any change to evaluation
// order, stack layout or annotation shows up as a diff here. Regenerate
// deliberately with:
//
//	go test ./internal/tracer -run Golden -update
func TestListing1Golden(t *testing.T) {
	res := mustRun(t, workloads.Listing1, nil, Options{})
	var got []byte
	{
		b := make([]byte, 0, 4096)
		b = append(b, res.Header.String()...)
		b = append(b, '\n')
		for i := range res.Records {
			b = append(b, res.Records[i].String()...)
			b = append(b, '\n')
		}
		got = b
	}
	const path = "testdata/listing1.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("Listing 1 trace changed; run with -update if intentional.\n got:\n%s\nwant:\n%s", got, want)
	}
}

// traceDigest is one pinned trace: the program, its defines, the record
// count and the SHA-256 of its text rendering (header plus records).
type traceDigest struct {
	name    string
	src     string
	defines map[string]string
	records int
	sha256  string
}

// digestOf renders res as trace text into a SHA-256 hash.
func digestOf(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	w := trace.NewWriter(h)
	if err := w.WriteHeader(res.Header); err != nil {
		t.Fatal(err)
	}
	for i := range res.Records {
		if err := w.Write(&res.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// namedDigests pins every named workload at its default defines.
var namedDigests = map[string]traceDigest{
	"binsearch":     {records: 7570, sha256: "cb5860822118ccec83a27d860c11dfecfa999529d9910c75bdfcd165efda705d"},
	"histogram":     {records: 5124, sha256: "093a19c62fde598ab8b724e36c34ebf8c98820a6333b3ac9a90ec9c0862ac2a0"},
	"list":          {records: 2055, sha256: "556e8d9acf345887b209ea03d87f4d704e6fe0a43828a6c11add7466446d400c"},
	"listing1":      {records: 49, sha256: "f65a41e0e9dc1e6faed42a037dbe0180e05da8cdc2d9f00b115369a6b92929d0"},
	"matmul":        {records: 143524, sha256: "8d76bdf655bc89b178fb408f2aac15ef37f4e18f1b863fff2125cac236ba14d6"},
	"particles-aos": {records: 2564, sha256: "4c39631c836c9865911a59a8be56d238f60a9480bbb3a430c40d803fae9823d5"},
	"particles-soa": {records: 2564, sha256: "09282ba0aa453563d26e85204cdf5592c7c37aa0c6b721b80a633ff436bf0b33"},
	"stencil":       {records: 10224, sha256: "fc737334dc07c221b3b67d61f4af533e402208e22442fab679b47dd9c9064f39"},
	"trans1-aos":    {records: 132, sha256: "93fb8009167454430ccbf13dcd64c265f8526948f3efaae23c03f75b10ab3125"},
	"trans1-soa":    {records: 132, sha256: "5b7a262d1bc00efdfea59a779d9b1c0cb508b2e4feec40f4f796493b81d886b5"},
	"trans2-hot":    {records: 645, sha256: "46d5ed01a49adacbe79c792344c4c721573cf483acde776fbbe97e9ebf6c5ac7"},
	"trans2-in":     {records: 180, sha256: "3964d4e0e0591cdbae80dddf961509eab5ec99480188be211dbb084cc6f55506"},
	"trans2-out":    {records: 212, sha256: "579b8d34ba7dff15fb2d846dd5d7097377428de493b2a7570ae4d4d5707f5923"},
	"trans3-cont":   {records: 5124, sha256: "6a685fff93d439c215d2ade275f4898ff21c60ddf21ef8d37966e423a336d9af"},
	"trans3-strd":   {records: 6148, sha256: "6f4d6fdf985fa2611debb395077dc2ad07d5aee35ca21b1823b70342f7c4a12d"},
}

// setupDigests pins the programs the benchmark traces during set-up, at
// the sizes it traces them.
var setupDigests = []traceDigest{
	{name: "trans1-soa LEN=32768", src: workloads.Trans1SoA, defines: map[string]string{"LEN": "32768"},
		records: 262148, sha256: "dff59b15e1aca62edc94c5ff333737b7927eaa20d31d6451b5214990c51f5b18"},
	{name: "trans3-cont LEN=32768", src: workloads.Trans3Contiguous, defines: map[string]string{"LEN": "32768"},
		records: 163844, sha256: "6c8606ee2c1f8d9c4ce03078195876c64cd40026508cda97f7f832c9ca73e440"},
	{name: "matmul N=24", src: workloads.MatMul, defines: map[string]string{"N": "24"},
		records: 143524, sha256: "8d76bdf655bc89b178fb408f2aac15ef37f4e18f1b863fff2125cac236ba14d6"},
	{name: "matmul N=48", src: workloads.MatMul, defines: map[string]string{"N": "48"},
		records: 1126852, sha256: "2ed13e0373956d41b4b6616d2a97e2cc465245c0059cf7a07ac32e4e14da3ae1"},
	{name: "histogram N=65536 BINS=256", src: workloads.Histogram, defines: map[string]string{"N": "65536", "BINS": "256"},
		records: 327684, sha256: "980be25520418ddcca759616fcae165aaff35a74640c44f1e4f75eba00cee877"},
	{name: "particles-aos N=8192", src: workloads.ParticlesAoS, defines: map[string]string{"N": "8192"},
		records: 81924, sha256: "558ba85e269214ab76eae54f9956927e09dc5f510c625a5f24683f0f75a6b2a3"},
	{name: "list N=4096", src: workloads.ListTraversal, defines: map[string]string{"N": "4096"},
		records: 32775, sha256: "276ec9d9c524fe3ba90c1f3a0e8d4396a6723bd7968ef2eff5bfcc1c2a617a61"},
}

// TestWorkloadTraceDigests pins the exact trace of every named workload
// and of every benchmark set-up program. The equivalence tests elsewhere
// build both of their sides through the same tracer, so only a pin like
// this one notices a change in what the tracer emits. Listing 1 is also
// pinned line by line in testdata/listing1.golden.
func TestWorkloadTraceDigests(t *testing.T) {
	if len(namedDigests) != len(workloads.Named) {
		t.Errorf("%d named digests for %d named workloads", len(namedDigests), len(workloads.Named))
	}
	for name, w := range workloads.Named {
		d, ok := namedDigests[name]
		if !ok {
			t.Errorf("named workload %s has no pinned digest", name)
			continue
		}
		d.name, d.src, d.defines = name, w.Source, w.Defines
		checkDigest(t, d)
	}
	if testing.Short() {
		t.Skip("set-up programs skipped in -short mode")
	}
	for _, d := range setupDigests {
		checkDigest(t, d)
	}
}

func checkDigest(t *testing.T, d traceDigest) {
	t.Helper()
	res := mustRun(t, d.src, d.defines, Options{})
	if got := digestOf(t, res); len(res.Records) != d.records || got != d.sha256 {
		t.Errorf("%s: %d records, sha256 %s; want %d records, sha256 %s",
			d.name, len(res.Records), got, d.records, d.sha256)
	}
}
