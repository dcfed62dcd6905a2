// Command perfbench is the repository's benchmark. One run sets up one
// workload from a seed, measures it for a fixed time, checks the outputs
// and prints every metric by name with its unit; the last line of standard
// output is the result as one JSON object.
//
//	bash perfbench/run.sh --workload train_quant_f7 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer, reads the build reports
// and the serving registry, and reports the per-layer metrics instead. The
// spans are written to .bench_out/trace/ when the run ends. See README.md
// for the workloads and which layer metric should move which end-to-end
// metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmpdt"
)

// setupRepeats is how many times a run sets up; setup_s is their median.
// Five set-ups of 24 stores take about as long as nine of 12 did.
const setupRepeats = 5

func main() {
	// One P: the host is shared, and a second CPU comes and goes with other
	// tenants' load, which would move every timing with it.
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured time in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for the run's files and the span dump")
	flag.Parse()
	w, ok := findWorkload(*workload)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks collects correctness failures; each is printed to standard error
// once per distinct message.
type checks struct {
	mu     sync.Mutex
	failed map[string]bool
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed == nil {
		c.failed = map[string]bool{}
	}
	if !c.failed[msg] {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	c.failed[msg] = true
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.failed) == 0
}

// measure runs one workload: set-up (repeated), the build phase and the
// serving phase, then assembles the metrics the trace mode asks for.
func measure(w workload, seed int64, budget time.Duration, traced bool, outDir string) (*result, error) {
	host := calibrate()
	fmt.Printf("# host nproc=%d gomaxprocs=%d effective_cpus=%.2f\n", host.nproc, host.gomaxprocs, host.effectiveCPUs)
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ref := newHostRef()
	var in *inputs
	var setupNs, setupRefNs []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = setup(w, seed, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupNs = append(setupNs, float64(time.Since(t0)))
		setupRefNs = append(setupRefNs, ref.time())
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	chk := &checks{}
	tres, err := trainPhase(w, in, scale(budget, 1-serveShare(traced)), ref, tr, chk)
	if err != nil {
		return nil, err
	}
	conns := min(runtime.NumCPU(), 2)
	sres, err := servePhase(w, in, tres, budget, conns, tr, chk)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %s: %d builds of %d nodes, serve low %+v high %+v, %d ladder steps, %d reloads\n",
		w.name, tres.builds, tres.tree.Size(), sres.low, sres.high, sres.ladderSteps, sres.reloads)

	if !traced {
		fmt.Printf("# wall medians: set-up %.0f ms, TrainFile %.1f ms; reference sort %.1f ms beside set-up, %.1f ms beside builds\n",
			median(setupNs)/1e6, median(tres.trainNs)/1e6, median(setupRefNs)/1e6, median(tres.refNs)/1e6)
	}
	res := &result{
		Attempted: int64(tres.builds) + sres.sent + sres.reloads,
		Failed:    sres.failed,
		Metrics:   map[string]metric{},
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if !traced {
		// Times are scaled to the nominal host (hostref.go). The build
		// figures are the median over the stores of each store's median
		// build: a few stores in a seed draw trees that take half as much
		// again, and the median keeps them from setting the figure.
		put("setup_s", median(scaled(setupNs, setupRefNs))/1e9, "s")
		put("train_rec_per_s", float64(records)/(tres.storeMedian(scaled(tres.trainNs, tres.refNs))/1e9), "rec/s")
		put("model_ready_s", tres.storeMedian(scaled(tres.readyNs, tres.refNs))/1e9, "s")
		put("test_accuracy", tres.accuracy, "ratio")
		put("train_alloc_mb", tres.storeMedian(tres.allocMB), "MB")
		put("serve_alloc_kb_per_req", sres.low.allocKB-sres.base.allocKB, "KiB")
	} else {
		spans := tr.snapshot()
		if err := writeSpans(filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.tsv", w.name, seed)), spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		putLayers(put, host, tres, sres, spans, chk)
	}
	for name, m := range res.Metrics {
		chk.expect(!math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "metric %s is %v", name, m.Value)
	}
	res.Correct = chk.ok()
	return res, nil
}

// phaseTolerance bounds how far the sum of a build report's disjoint phase
// totals may fall short of (or exceed) the traced TrainFile span, as a share
// of the span. The gap is work outside any phase: opening the store, tree
// assembly and the report itself.
const phaseTolerance = 0.10

// putLayers reports the per-layer metrics of a traced run.
func putLayers(put func(string, float64, string), host hostInfo, tres *trainResult, sres *serveResult, spans []span, chk *checks) {
	putUnbounded(put, sres)
	put("host.nproc", float64(host.nproc), "count")
	put("host.gomaxprocs", float64(host.gomaxprocs), "count")
	put("host.effective_cpus", host.effectiveCPUs, "count")

	reps := tres.reports
	med := func(f func(r *cmpdt.BuildReport) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	last := reps[len(reps)-1]
	put("storage.scans", float64(last.IO.Scans), "count")
	put("storage.pages_read", float64(last.IO.PagesRead), "count")
	put("storage.bytes_read", float64(last.IO.BytesRead), "B")
	put("storage.quantize_ms", med(func(r *cmpdt.BuildReport) float64 { return ms(r.Quant.QuantizeNs) }), "ms")
	put("storage.code_bytes_per_record", float64(last.Quant.CodeBytesPerRecord), "B")
	put("storage.scan_pass_ms", median(tres.scanPassNs)/1e6, "ms")
	for _, p := range []string{"init", "scan", "sort", "resolve", "oblique", "decide", "collect", "prune"} {
		put("core."+p+"_ms", med(func(r *cmpdt.BuildReport) float64 { return ms(r.PhaseTotals[p].Ns) }), "ms")
	}
	put("core.rounds", float64(last.Build.Rounds), "count")
	put("core.buffered_records", float64(last.Build.BufferedRecords), "count")
	put("core.oblique_splits", float64(last.Build.ObliqueSplits), "count")
	hitRatio := 0.0
	if last.Build.PredictionTotal > 0 {
		hitRatio = float64(last.Build.PredictionHits) / float64(last.Build.PredictionTotal)
	}
	put("core.prediction_hit_ratio", hitRatio, "ratio")
	put("core.double_splits", float64(last.Build.DoubleSplits), "count")
	put("core.tree_nodes", float64(last.Build.TreeNodes), "count")
	put("core.peak_memory_mb", float64(last.Build.PeakMemoryBytes)/(1<<20), "MB")
	put("stats.scans_saved", float64(last.Stats.ScansSaved), "count")

	put("tree.save_ms", median(tres.saveNs)/1e6, "ms")
	put("tree.load_ms", median(tres.loadNs)/1e6, "ms")
	put("tree.model_bytes", float64(tres.modelBytes), "B")
	put("tree.score_ns_per_record", median(tres.scoreNsPerRec), "ns")

	// Phase totals against the traced TrainFile span, build by build.
	var coverage []float64
	for i, r := range reps {
		coverage = append(coverage, float64(reportPhaseNs(r))/tres.tracedNs[i])
	}
	cov := median(coverage)
	chk.expect(math.Abs(1-cov) <= phaseTolerance, "report phase totals cover %.3f of the TrainFile span, outside 1±%.2f", cov, phaseTolerance)
	put("trace.train_span_ms", median(tres.tracedNs)/1e6, "ms")
	put("trace.phase_coverage", cov, "ratio")
	put("trace.overhead_ms", median(tres.overheadNs)/1e6, "ms")
	put("trace.spans", float64(len(spans)), "count")

	self := selfTimes(spans)
	put("trace.build_self_ms", median(self["build"])/1e6, "ms")
	put("trace.request_self_p50_ms", median(self["request"])/1e6, "ms")
	handler := durations(spans, "handler")
	put("serve.handler_p50_ms", percentile(handler, 0.50)/1e6, "ms")
	put("serve.handler_p99_ms", percentile(handler, 0.99)/1e6, "ms")
	score := durations(spans, "serve_score")
	put("serve.score_p50_ms", percentile(score, 0.50)/1e6, "ms")
	put("serve.score_p99_ms", percentile(score, 0.99)/1e6, "ms")
	put("serve.load_ms", median(durations(spans, "serve_load"))/1e6, "ms")
	qw := sres.registry.Histograms["serve_queue_wait_ns"]
	put("serve.queue_wait_p50_ms", ms(qw.P50Ns), "ms")
	put("serve.queue_wait_p99_ms", ms(qw.P99Ns), "ms")
	br := sres.registry.Histograms["serve_batch_records"]
	put("serve.batch_records_mean", br.MeanNs, "count")
	put("serve_error_rate", float64(sres.failed)/float64(max(sres.sent, 1)), "ratio")

	put("loadgen.late_p99_ms", sres.lateP99Ms, "ms")
	for _, p := range []struct {
		name             string
		sent, ok, failed int64
	}{
		{"low", sres.low.sent, sres.low.ok, sres.low.failed},
		{"high", sres.high.sent, sres.high.ok, sres.high.failed},
		{"ladder", sres.ladder.sent, sres.ladder.ok, sres.ladder.failed},
	} {
		put("loadgen."+p.name+".sent", float64(p.sent), "count")
		put("loadgen."+p.name+".ok", float64(p.ok), "count")
		put("loadgen."+p.name+".failed", float64(p.failed), "count")
	}
	put("loadgen.ladder.abandoned", float64(sres.ladder.unsent), "count")
}

// putUnbounded reports the user-facing figures that move too much between
// runs to bound (see README.md): serving times, which follow the shared
// host's speed, and peak RSS, which one store in a few raises by a third.
// They come from traced runs, with the handler, loader and predictor
// wrapped and the spans held in memory.
func putUnbounded(put func(string, float64, string), sres *serveResult) {
	put("peak_rss_mb", peakRSSMB(), "MB")
	put("serve_p50_ms.low", sres.low.p50Ms, "ms")
	put("serve_p99_ms.low", sres.low.p99Ms, "ms")
	put("serve_p50_ms.high", sres.high.p50Ms, "ms")
	put("serve_p99_ms.high", sres.high.p99Ms, "ms")
	put("serve_max_rps", sres.maxRPS, "req/s")
	put("reload_ms", median(sres.reloadMs), "ms")
}

// hostInfo is the calibration every result records.
type hostInfo struct {
	nproc, gomaxprocs int
	// effectiveCPUs is how many goroutines of pure CPU work the host runs
	// at once: the time of one spin over the time of two concurrent
	// spins, times two. About 1 on a host that time-slices one CPU.
	effectiveCPUs float64
}

var spinSink atomic.Uint64

func calibrate() hostInfo {
	spin := func() {
		x := uint64(1)
		for i := 0; i < 20_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink.Add(x)
	}
	timeSpins := func(k int) float64 {
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); spin() }()
		}
		wg.Wait()
		return float64(time.Since(t0))
	}
	procs := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(procs)
	var one, two []float64
	for i := 0; i < 3; i++ {
		one = append(one, timeSpins(1))
		two = append(two, timeSpins(2))
	}
	return hostInfo{
		nproc:         runtime.NumCPU(),
		gomaxprocs:    procs,
		effectiveCPUs: 2 * median(one) / median(two),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
