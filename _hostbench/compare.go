package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json the compare mode reads.
type benchDef struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// resultSet maps "workload" (or "workload traced") to each metric's
// values over the runs in one result file.
type resultSet map[string]map[string][]float64

// readSet reads a file of concatenated run outputs: each result line is
// attributed to the meta line printed just before it.
func readSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	var cur *meta
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, metaPrefix); ok {
			cur = &meta{}
			if err := json.Unmarshal([]byte(rest), cur); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			continue
		}
		if cur == nil || !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		key := cur.Workload
		if cur.Trace == 1 {
			key += " traced"
		}
		if set[key] == nil {
			set[key] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			set[key][name] = append(set[key][name], v.Value)
		}
		cur = nil
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return set, nil
}

// compareSets prints, for each (workload, metric) pair, both sets'
// median and quartiles and a verdict under the metric's bound.
func compareSets(w io.Writer, defPath, pathA, pathB string) error {
	raw, err := os.ReadFile(defPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", defPath, err)
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s, B = %s; each cell: median [q1, q3] (runs)\n", pathA, pathB)
	for _, wl := range sortedKeys(a) {
		if b[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", wl)
		for _, d := range append(def.EndToEnd, def.PerLayer...) {
			va, vb := a[wl][d.Name], b[wl][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-28s %-34s %-34s %s\n", d.Name, cell(va), cell(vb), verdict(va, vb, d.Better, d.Bound))
		}
	}
	return nil
}

func cell(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", m, q1, q3, len(xs))
}

// verdict judges B against A for one metric, by the rules of the
// benchmark: a regression is a median worse by more than the bound; a
// spread wider than the bound leaves the pair unresolved unless every
// run of B beats every run of A; an improvement needs B's median better
// by more than A's quartile spread and B winning 9 in 10 run pairs.
// Metrics without a bound (per-layer) get the change only.
func verdict(a, b []float64, better string, bound float64) string {
	sign := 1.0 // +1: higher values are worse
	if better == "higher" {
		sign = -1
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	if ma == 0 {
		return "n/a (A median 0)"
	}
	worse := sign * (mb - ma) / math.Abs(ma)
	change := fmt.Sprintf("%+.1f%%", 100*(mb-ma)/math.Abs(ma))
	if bound == 0 || better == "" {
		return change
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && sign*(y-x) < 0
			allWorse = allWorse && sign*(y-x) > 0
		}
	}
	spreadA, spreadB := (qa3-qa1)/math.Abs(ma), (qb3-qb1)/math.Abs(mb)
	switch {
	case spreadA > bound || spreadB > bound:
		if allBetter {
			return change + " improved (every run)"
		}
		return change + " unresolved (spread wider than bound)"
	case worse > bound:
		return change + " REGRESSED"
	case allWorse:
		return change + " worse, within bound"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if -worse > spreadA && float64(wins) >= 0.9*float64(pairs) {
		return change + " improved"
	}
	return change + " same, within bound"
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
