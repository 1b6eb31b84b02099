// Hot/cold splitting: the paper's transformation 2. A structure mixing a
// frequently used scalar with a rarely used nested struct wastes cache
// space; outlining the cold part into an external pool packs the hot
// scalars densely. We quantify the trade-off — denser hot data vs the extra
// pointer loads the indirection costs — from the trace alone.
//
//	go run ./examples/hotcold-outline
package main

import (
	"fmt"
	"os"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/rules"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
	"tracedst/internal/xform"
)

const n = 128

// hotLoop touches only the hot member of every element — the access
// pattern hot/cold splitting is designed for. The cold members are
// initialised outside the traced window.
const hotLoop = `
typedef struct {
	int mFrequentlyUsed;
	struct { double mY; int mZ; } mRarelyUsed;
} MyInlineStruct;
MyInlineStruct lS1[N];

int main(void) {
	int sum;
	GLEIPNIR_START_INSTRUMENTATION;
	sum = 0;
	for (int lI=0 ; lI<N ; lI++) {
		sum += lS1[lI].mFrequentlyUsed;
	}
	GLEIPNIR_STOP_INSTRUMENTATION;
	return sum;
}
`

func main() {
	res, err := tracer.Run(hotLoop, map[string]string{"N": fmt.Sprint(n)}, tracer.Options{})
	if err != nil {
		fatal(err)
	}

	ruleSrc := workloads.RuleTrans2ForLen(n)
	rule, err := rules.Parse(ruleSrc)
	if err != nil {
		fatal(err)
	}
	eng, err := xform.New(xform.Options{}, rule)
	if err != nil {
		fatal(err)
	}
	transformed, err := eng.TransformAll(res.Records)
	if err != nil {
		fatal(err)
	}

	// A small cache makes the density effect visible: the inline layout
	// spreads 128 hot ints over 128×24 = 3072 bytes (96 blocks); outlined,
	// they pack into 128×16 = 2048 bytes (64 blocks).
	cfg := cache.Config{Name: "tiny-l1", Size: 512, BlockSize: 32, Assoc: 2}
	before := simulate(res.Records, cfg)
	after := simulate(transformed, cfg)

	fmt.Printf("hot loop over %d elements (only mFrequentlyUsed touched)\n\n", n)
	fmt.Printf("%-22s %10s %10s %10s\n", "layout", "accesses", "misses", "miss%")
	bs, as := before.L1().Stats(), after.L1().Stats()
	fmt.Printf("%-22s %10d %10d %9.1f%%\n", "inline (lS1)", bs.Accesses(), bs.Misses(),
		100*bs.MissRatio())
	fmt.Printf("%-22s %10d %10d %9.1f%%\n", "outlined (lS2+pool)", as.Accesses(), as.Misses(),
		100*as.MissRatio())

	// Per-variable: misses charged to the hot structure must drop.
	vb := before.Var("lS1")
	va := after.Var("lS2")
	fmt.Printf("\nhot-structure misses: inline %d → outlined %d", vb.Misses, va.Misses)
	if va.Misses < vb.Misses {
		fmt.Printf("  (outlining wins: hot data is %.1fx denser)\n",
			float64(vb.Misses)/float64(va.Misses))
	} else {
		fmt.Println("  (no win at this cache size)")
	}

	// The cost side: this loop never touches the cold part, so the
	// indirection inserts nothing. Re-run with the paper's full loop, which
	// touches hot AND cold members, to see the inserted pointer loads.
	full, err := tracer.Run(workloads.Trans2Inline, map[string]string{"LEN": fmt.Sprint(n)}, tracer.Options{})
	if err != nil {
		fatal(err)
	}
	eng2, err := xform.New(xform.Options{}, mustRule(ruleSrc))
	if err != nil {
		fatal(err)
	}
	fullT, err := eng2.TransformAll(full.Records)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nfull loop (hot+cold): %d records → %d (%d pointer loads inserted)\n",
		len(full.Records), len(fullT), eng2.Stats().Inserted)
}

func mustRule(src string) rules.Rule {
	r, err := rules.Parse(src)
	if err != nil {
		fatal(err)
	}
	return r
}

func simulate(recs []trace.Record, cfg cache.Config) *dinero.Simulator {
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		fatal(err)
	}
	sim.Process(recs)
	return sim
}

// Errors go through the telemetry sink, so the example fails the same way
// the CLIs do (and stays machine-parseable under a JSON logger).
func init() { telemetry.UseTextLogger("hotcold-outline") }

func fatal(err error) {
	telemetry.L().Error(err.Error())
	os.Exit(1)
}
