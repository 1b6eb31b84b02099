package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readResults loads a result set written by -out: one result per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects each metric's values per workload.
func series(rs []result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// verdict judges B against A for one end-to-end metric: "unresolved" when
// A's own quartile spread exceeds the bound and not every run of B beats
// every run of A, else "WORSE" when B's median is worse than A's by more
// than the bound, else "ok".
func verdict(m metricSpec, a, b []float64) string {
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	sign := 1.0 // +1 when lower is better
	if m.Better == "higher" {
		sign = -1
	}
	beatsAll := true
	for _, x := range a {
		for _, y := range b {
			beatsAll = beatsAll && sign*(y-x) < 0
		}
	}
	switch {
	case (q3-q1)/math.Abs(ma) > m.Bound && !beatsAll:
		return "unresolved"
	case sign*(mb-ma)/math.Abs(ma) > m.Bound:
		return "WORSE"
	}
	return "ok"
}

// compareFiles prints, for every (workload, metric) the two result sets
// share, both medians and quartiles and, for end-to-end metrics, whether B
// stays within the metric's bound of A. It returns the exit status: 1
// when some metric got worse by more than its bound.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) int {
	ra, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 2
	}
	rb, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 2
	}
	sa, sb := series(ra), series(rb)
	var names []string
	for wl := range sa {
		if sb[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	status := 0
	fmt.Fprintf(w, "%-18s %-28s %34s %34s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	for _, wl := range names {
		for _, group := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			for _, m := range group {
				a, b := sa[wl][m.Name], sb[wl][m.Name]
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				a1, a2, a3 := quartiles(a)
				b1, b2, b3 := quartiles(b)
				v, bound := "", ""
				if m.Bound > 0 {
					v, bound = verdict(m, a, b), fmt.Sprintf("%.0f%%", 100*m.Bound)
					if v == "WORSE" {
						status = 1
					}
				}
				fmt.Fprintf(w, "%-18s %-28s %34s %34s %+7.1f%% %6s  %s\n", wl, m.Name,
					fmt.Sprintf("%.4g [%.4g, %.4g]", a2, a1, a3),
					fmt.Sprintf("%.4g [%.4g, %.4g]", b2, b1, b3),
					100*(b2-a2)/math.Abs(a2), bound, v)
			}
		}
	}
	return status
}
