package experiments

import (
	"testing"

	"tracedst/internal/analysis"
	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/trace"
)

// TestFigureMultiSimParity: the histogram figures now simulate through
// the single-pass multi-config engine; their rendered report and per-set
// plot must stay byte-identical to the per-config Simulator path they
// replaced.
func TestFigureMultiSimParity(t *testing.T) {
	cases := []struct {
		id    string
		trace func() ([]trace.Record, error)
		cfg   cache.Config
	}{
		{"fig3", t1Trace.get, cache.Paper32KDirect()},
		{"fig4", t1Xform.get, cache.Paper32KDirect()},
		{"fig6", t2Trace.get, cache.Paper32KDirect()},
		{"fig7", t2Xform.get, cache.Paper32KDirect()},
		{"fig10", t3Trace.get, cache.PowerPC440()},
		{"fig11", t3Xform.get, cache.PowerPC440()},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			r := runFig(t, c.id)
			recs, err := c.trace()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := dinero.New(dinero.Options{L1: c.cfg})
			if err != nil {
				t.Fatal(err)
			}
			ref.Process(recs)
			if want := ref.Report(); r.SimReport != want {
				t.Errorf("MultiSim report diverges from independent Simulator:\n--- want ---\n%s\n--- got ---\n%s", want, r.SimReport)
			}
			want := analysis.FromSimulator(r.Title, ref, false)
			if got := r.Plot.CSV(); got != want.CSV() {
				t.Errorf("MultiSim plot diverges from independent Simulator:\n--- want ---\n%s\n--- got ---\n%s", want.CSV(), got)
			}
		})
	}
}
