// Command perfbench is the repository's benchmark: it times the
// simulator, a campaign and a served campaign through their public
// entry points, checks every output, and prints end-to-end metrics (or,
// with --trace 1, per-layer metrics) as one JSON line. README.md in this
// directory describes the workloads and every metric.
//
//	bash perfbench/run.sh --workload oltp-long --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"safetynet/internal/sim"
)

// workloads maps each workload name to the function that runs it, in
// print order.
var workloads = []struct {
	name string
	run  func(cfg settings) (*result, error)
}{
	{"oltp-long", runOltp},
	{"matrix", runMatrix},
	{"served-short", runServed},
}

// sizing fixes how much work one unit of each workload is. The
// benchmark runs fullSize; tests run a smaller one.
type sizing struct {
	name string
	// oltpCycles is the oltp-long run's horizon, driven in oltpStrides
	// equal Backend.Run calls.
	oltpCycles  sim.Time
	oltpStrides int
	// matrixScaleTo shrinks the matrix campaign (0 = its own horizon);
	// servedScaleTo is served-short's scale_to.
	matrixScaleTo uint64
	servedScaleTo uint64
	// probes are how many setup-time samples each workload takes on
	// fresh state before each unit, so that the setup_s samples spread
	// over the whole run. layerSetups is how many NewBackend+Start
	// samples feed the oltp-long runner.setup_ms_* metrics (campaign
	// workloads time one per run).
	probes      map[string]int
	layerSetups int
}

var fullSize = sizing{
	name:          "full",
	oltpCycles:    12_000_000,
	oltpStrides:   100,
	servedScaleTo: 80_000,
	// About half a second of probing per unit.
	probes:      map[string]int{"oltp-long": 10, "matrix": 200, "served-short": 30},
	layerSetups: 100,
}

// settings is one invocation's settings.
type settings struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     sizing
	out      string // directory for spans and the served store
	goldens  map[string]string
	workers  int
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	// digest is the SHA-256 of the workload's canonical result, checked
	// against the golden for this seed when one exists.
	digest string
	// notes are human-readable lines printed before the JSON line.
	notes []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkDigest hashes one unit's canonical result; every unit of a run
// must hash alike.
func (r *result) checkDigest(canonical []byte) {
	sum := sha256.Sum256(canonical)
	d := hex.EncodeToString(sum[:])
	if r.digest != "" && r.digest != d {
		r.problem("canonical result changed between repeats of one run: %s then %s", r.digest, d)
	}
	r.digest = d
}

// checkGolden compares the run's digest with the golden for this
// workload, seed and size (sizes other than full prefix the key); runs
// without a golden rely on the remaining checks.
func (r *result) checkGolden(cfg settings) {
	key := fmt.Sprintf("%s/%d", cfg.workload, cfg.seed)
	if cfg.size.name != fullSize.name {
		key = cfg.size.name + ":" + key
	}
	r.note("digest %s %s", key, r.digest)
	want, ok := cfg.goldens[key]
	switch {
	case !ok:
		r.note("golden %s: none, not compared", key)
	case want != r.digest:
		r.problem("golden %s: result digest %s, golden %s", key, r.digest, want)
	default:
		r.note("golden %s: match", key)
	}
}

//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// cpuNow is the CPU time, user plus system over every thread, that the
// process has used so far. The benchmark times its work in CPU time:
// on a shared virtual host, wall time also counts the time the host
// gave the benchmark's CPUs to other guests, and that share moves by
// more than the benchmark's bounds from one minute to the next.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memProbe times a fixed memory-bound kernel: random updates over an
// 8 MiB buffer, larger than a core's private caches. The benchmark
// prints its time before and after measuring, so a reader can tell a
// slow host from a slow program: on shared hosts this kernel's speed
// drifts with the neighbours' memory traffic.
func memProbe() time.Duration {
	runtime.GC() // no collection may run beside the kernel
	buf := make([]uint64, 1<<20)
	for i := range buf {
		buf[i] = uint64(i) // fault every page in before timing
	}
	t0 := time.Now()
	x := uint64(1)
	for pass := 0; pass < 16; pass++ {
		for range buf {
			x = x*6364136223846793005 + 1442695040888963407
			buf[x>>44] += x
		}
	}
	d := time.Since(t0)
	memProbeSink += buf[x>>44]
	return d
}

var memProbeSink uint64

// hostFacts describes where the numbers were taken.
func hostFacts(commit string) string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, commit)
}

// output is the JSON line the benchmark ends with.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the run's notes, one line per metric, and the JSON line.
// It reports whether every output check passed.
func emit(w io.Writer, cfg settings, r *result) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, p := range r.problems {
		r.note("CHECK FAILED: %s", p)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	out := output{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := r.metrics[d.Name]
		fmt.Fprintf(w, "%-28s %16.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Fprintln(w, string(b))
	return out.Correct
}

// runAll runs every workload in a fresh child process of this binary,
// so peak RSS, GC state and the CPU profile never leak between
// workloads, and passes each child's output through.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(self, append([]string{"--workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: oltp-long, matrix, served-short, or all")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 end-to-end metrics")
		out      = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and scratch files")
		commit   = flag.String("commit", "unknown", "commit being measured, printed with the host facts")
	)
	flag.Parse()
	if *workload == "all" {
		return runAll([]string{"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds),
			"--trace", fmt.Sprint(*trace), "--out", *out, "--commit", *commit})
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	goldens, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := settings{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		size:     fullSize,
		out:      *out,
		goldens:  goldens,
		workers:  runtime.GOMAXPROCS(0),
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		if w.name != cfg.workload {
			continue
		}
		fmt.Println(hostFacts(*commit))
		fmt.Printf("workload=%s seed=%d seconds=%g trace=%v workers=%d\n",
			cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.workers)
		before := memProbe()
		r, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
			return 1
		}
		r.note("host memory probe s: %.4g before, %.4g after", before.Seconds(), memProbe().Seconds())
		if !emit(os.Stdout, cfg, r) {
			return 1
		}
		return 0
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", cfg.workload, strings.Join(names, ", "))
	return 2
}

// measureLoop calls unit until the measured time reaches the budget,
// at least once.
func measureLoop(seconds float64, unit func() error) error {
	start := time.Now()
	for first := true; first || time.Since(start).Seconds() < seconds; first = false {
		if err := unit(); err != nil {
			return err
		}
	}
	return nil
}
