package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// smallSize keeps every workload's unit to a few seconds while still
// meeting the matrix campaign's expect blocks (at much shorter horizons
// the drop variant records no recovery in its measurement window).
var smallSize = sizing{
	name:          "small",
	oltpCycles:    400_000,
	oltpStrides:   10,
	matrixScaleTo: 80_000,
	servedScaleTo: 80_000,
	probes:        map[string]int{"oltp-long": 2, "matrix": 2, "served-short": 2},
	layerSetups:   3,
}

func smallSettings(t *testing.T, workload string, trace bool) settings {
	return settings{
		workload: workload,
		seed:     1,
		seconds:  0, // one unit
		trace:    trace,
		size:     smallSize,
		out:      t.TempDir(),
		goldens:  map[string]string{},
		workers:  runtime.GOMAXPROCS(0),
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return v
	}
	d := newDist(seq(120))
	if got := d.p50(); got != 60 {
		t.Errorf("p50 of 1..120 = %v, want 60", got)
	}
	if v, beyond := d.at(90); v != 108 || beyond != 12 {
		t.Errorf("p90 of 1..120 = %v with %d beyond, want 108 with 12", v, beyond)
	}
	if p, v, beyond, ok := d.tail(); !ok || p != 90 || v != 108 || beyond != 12 {
		t.Errorf("tail of 1..120 = p%v=%v (%d beyond, ok=%v), want p90=108 (12 beyond)", p, v, beyond, ok)
	}
	if p, _, beyond, ok := newDist(seq(1000)).tail(); !ok || p != 99 || beyond != 10 {
		t.Errorf("tail of 1..1000 = p%v (%d beyond), want p99 (10 beyond)", p, beyond)
	}
	small := newDist(seq(9))
	if _, _, _, ok := small.tail(); ok {
		t.Error("9 samples cannot carry a tail percentile with 10 beyond")
	}
	if s := d.String(); !strings.Contains(s, "n=120") || !strings.Contains(s, "p90=108") || !strings.Contains(s, "12 beyond") {
		t.Errorf("String() = %q, want the sample count, p90 and its beyond-count", s)
	}
	if s := small.String(); !strings.Contains(s, "n=9") || !strings.Contains(s, "no tail") {
		t.Errorf("String() = %q, want the sample count and no tail", s)
	}
	if v, _ := newDist(nil).at(50); v != 0 {
		t.Errorf("empty sample reads %v, want 0", v)
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"safetynet/internal/cache.(*Array).Lookup":     "safetynet/internal/cache",
		"safetynet/internal/sim.(*Engine).Run.func1":   "safetynet/internal/sim",
		"runtime.memclrNoHeapPointers":                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "internal/runtime/maps",
		"net/http.(*conn).serve":                       "net/http",
		"slices.SortFunc[go.shape.[]int,go.shape.int]": "slices",
		"main.main": "main",
		"safetynet/internal/x.F[go.shape.struct { a/b }]": "safetynet/internal/x",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLayerSharesSumToAtMostOne(t *testing.T) {
	st := selfTime{total: 100, byFunc: map[string]int64{
		"safetynet/internal/cache.(*Array).Lookup": 30,
		"runtime.memclrNoHeapPointers":             10,
		"sync.(*Mutex).Lock":                       5,
		"net/http.(*conn).serve":                   5,
		"main.spin":                                50,
	}}
	sh := st.layerShares()
	want := map[string]float64{"cache": 0.30, "runtime": 0.15, "runtime.memclr": 0.10, "nethttp": 0.05, "sim": 0}
	for k, v := range want {
		if got := sh[k]; got < v-1e-9 || got > v+1e-9 {
			t.Errorf("share[%s] = %v, want %v", k, got, v)
		}
	}
	checkShareSum(t, sh)
}

func checkShareSum(t *testing.T, sh map[string]float64) {
	t.Helper()
	var sum float64
	for _, lp := range layerPackages {
		v := sh[lp.layer]
		if v < 0 || v > 1 {
			t.Errorf("share[%s] = %v, outside [0, 1]", lp.layer, v)
		}
		sum += v
	}
	if sum > 1+1e-9 {
		t.Errorf("layer shares sum to %v, want at most 1", sum)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestParseRealProfile groups a CPU profile the runtime actually wrote.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	st, err := parseSelfTime(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.total <= 0 || len(st.byFunc) == 0 {
		t.Fatalf("profile of a 500ms spin holds no samples: %+v", st)
	}
	var sum int64
	for _, v := range st.byFunc {
		sum += v
	}
	if sum != st.total {
		t.Errorf("per-function self time sums to %d, total is %d", sum, st.total)
	}
	checkShareSum(t, st.layerShares())
}

func TestStridewiseMedian(t *testing.T) {
	// A stall in stride 0 of one unit and in stride 1 of another: the
	// unit-level median (10) keeps a stalled unit, the stride-wise
	// median keeps neither stall.
	units := [][]float64{{9, 1}, {1, 9}, {1, 1}}
	if got := stridewiseMedian(units); got != 2 {
		t.Errorf("stridewiseMedian = %v, want 2", got)
	}
	if got := stridewiseMedian(nil); got != 0 {
		t.Errorf("stridewiseMedian(nil) = %v, want 0", got)
	}
}

// benchmarkJSON reads the metric tables of BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layer []metricDef) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	return e2e, layer
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v\nprogram prints %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v\nprogram prints %v", layer, perLayer)
	}
}

// lastLine parses the JSON line emit ends with.
func lastLine(t *testing.T, out string) output {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var o output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return o
}

// TestSmoke runs every workload once at small size, untraced and
// traced, and checks the printed result against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := benchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				cfg := smallSettings(t, w.name, trace)
				r, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				ok := emit(&out, cfg, r)
				o := lastLine(t, out.String())
				if !ok || !o.Correct || o.Failed != 0 || o.Attempted < 1 {
					t.Fatalf("run not correct (attempted %d, failed %d):\n%s", o.Attempted, o.Failed, out.String())
				}
				want := e2e
				if trace {
					want = layer
				}
				if len(o.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(o.Metrics), len(want))
				}
				for _, d := range want {
					mv, ok := o.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", d.Name)
					case mv.Unit != d.Unit:
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", d.Name, mv.Unit, d.Unit)
					case !trace && mv.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, mv.Value)
					}
				}
				if trace && w.name != "oltp-long" && o.Metrics["snoop.events"].Value <= 0 {
					t.Errorf("snoop.events = %v on a campaign with snoop runs, want > 0", o.Metrics["snoop.events"].Value)
				}
			})
		}
	}
}

// TestPerturbedGoldenFails checks that a run whose digest differs from
// its golden is reported as incorrect, and that the true digest passes.
func TestPerturbedGoldenFails(t *testing.T) {
	cfg := smallSettings(t, "oltp-long", false)
	r, err := runOltp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 0 || r.digest == "" {
		t.Fatalf("baseline run: problems %v, digest %q", r.problems, r.digest)
	}
	key := fmt.Sprintf("%s:%s/%d", smallSize.name, cfg.workload, cfg.seed)

	cfg.goldens = map[string]string{key: r.digest}
	good, err := runOltp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(good.problems) != 0 {
		t.Errorf("true golden reported problems: %v", good.problems)
	}

	flipped := []byte(r.digest)
	flipped[0] ^= 1
	cfg.goldens = map[string]string{key: string(flipped)}
	bad, err := runOltp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if emit(&out, cfg, bad) || lastLine(t, out.String()).Correct {
		t.Errorf("perturbed golden still reported correct:\n%s", out.String())
	}
}
