// Autosearch: explore the transformation space of a structure — the
// paper's closing vision ("exploring the transformation space of data
// structures that does not require source code modifications", "similarly
// to computational steering"). One trace of the original program is
// rewritten under a set of candidate layout rules; each candidate is ranked
// by simulated misses, without ever recompiling the program.
//
//	go run ./examples/autosearch
package main

import (
	"fmt"
	"os"
	"sort"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/rules"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/xform"
)

// The subject program: a record with one hot field, two warm fields and a
// cold blob, scanned with a skewed access mix (hot every element, warm
// every 4th, cold never inside the window).
const program = `
typedef struct {
	int hot;
	double warm1;
	double warm2;
	double cold[6];
} Rec;
Rec recs[256];

int main(void) {
	int acc;
	GLEIPNIR_START_INSTRUMENTATION;
	acc = 0;
	for (int i = 0; i < 256; i++) {
		acc += recs[i].hot;
		if (i % 4 == 0) {
			recs[i].warm1 = recs[i].warm1 + 1.0;
			recs[i].warm2 = recs[i].warm2 + 1.0;
		}
	}
	GLEIPNIR_STOP_INSTRUMENTATION;
	return acc;
}
`

// candidate layouts, each expressed purely as a rule file.
var candidates = []struct {
	name string
	rule string // empty = identity (original layout)
}{
	{"original (AoS, 80 B/elem)", ""},
	{"SoA (full split by member)", `
in:
struct recs { int hot; double warm1; double warm2; double cold[6]; }[256];
out:
struct recsSoA { int hot[256]; double warm1[256]; double warm2[256]; double cold[1536]; };
`},
	{"peel hot | warm | cold", `
in:
struct recs { int hot; double warm1; double warm2; double cold[6]; }[256];
out:
struct rHot { int hot; }[256];
struct rWarm { double warm1; double warm2; }[256];
struct rCold { double cold[6]; }[256];
`},
	{"peel hot+warm | cold", `
in:
struct recs { int hot; double warm1; double warm2; double cold[6]; }[256];
out:
struct rFront { int hot; double warm1; double warm2; }[256];
struct rBack { double cold[6]; }[256];
`},
	{"outline cold behind pointer", `
in:
struct coldpart { double c0; double c1; double c2; double c3; double c4; double c5; };
struct recs { int hot; double warm1; double warm2; struct coldpart; }[256];
out:
struct coldpool { double c0; double c1; double c2; double c3; double c4; double c5; }[256];
struct recsOut { int hot; double warm1; double warm2; * coldpart:coldpool; }[256];
`},
}

func main() {
	res, err := tracer.Run(program, nil, tracer.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("traced %d records; exploring %d candidate layouts\n\n", len(res.Records), len(candidates))

	cfg := cache.Config{Name: "l1", Size: 2048, BlockSize: 32, Assoc: 2}
	type outcome struct {
		name    string
		misses  int64
		records int
	}
	var outcomes []outcome
	for _, c := range candidates {
		recs := res.Records
		if c.rule != "" {
			rule, err := rules.Parse(c.rule)
			if err != nil {
				fatal(fmt.Errorf("%s: %v", c.name, err))
			}
			eng, err := xform.New(xform.Options{}, rule)
			if err != nil {
				fatal(err)
			}
			recs, err = eng.TransformAll(res.Records)
			if err != nil {
				fatal(fmt.Errorf("%s: %v", c.name, err))
			}
		}
		outcomes = append(outcomes, outcome{c.name, misses(recs, cfg), len(recs)})
	}

	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].misses < outcomes[j].misses })
	fmt.Printf("%-32s %10s %10s\n", "layout (ranked)", "misses", "records")
	for i, o := range outcomes {
		marker := "  "
		if i == 0 {
			marker = "→ "
		}
		fmt.Printf("%s%-30s %10d %10d\n", marker, o.name, o.misses, o.records)
	}
	fmt.Printf("\ncache: %d B, %d-byte blocks, %d-way LRU\n", cfg.Size, cfg.BlockSize, cfg.Assoc)
	fmt.Println("note: the access mix (hot always, warm 25%, cold never) decides the winner —")
	fmt.Println("re-run the search per workload phase to steer the layout choice.")
}

func misses(recs []trace.Record, cfg cache.Config) int64 {
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		fatal(err)
	}
	sim.Process(recs)
	return sim.L1().Stats().Misses()
}

// Errors go through the telemetry sink, so the example fails the same way
// the CLIs do (and stays machine-parseable under a JSON logger).
func init() { telemetry.UseTextLogger("autosearch") }

func fatal(err error) {
	telemetry.L().Error(err.Error())
	os.Exit(1)
}
