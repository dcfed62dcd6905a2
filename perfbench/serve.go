package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmpdt"
	"cmpdt/internal/obs"
	"cmpdt/internal/serve"
)

// Serving phases. low and high are fixed open-loop rates; the ladder then
// raises the rate to find the highest one that meets latencyLimitMs.
const (
	// Shares of --seconds given to the serving phases; the builds get the
	// rest. The ladder feeds only per-layer figures, so it runs in traced
	// runs only, and an untraced run gives its time to builds.
	warmShare   = 0.007
	baseShare   = 0.02
	lowShare    = 0.105
	highShare   = 0.105
	ladderShare = 0.126

	lowRate        = 1000.0
	highRate       = 4000.0
	latencyLimitMs = 25.0
	// ladderStep is the coarse ladder's rate ratio; bisectSteps then halve
	// the bracket around the limit this many times.
	ladderStep  = 1.5
	bisectSteps = 3
	maxRate     = 64000.0
	// maxFailShare is the failed share of requests a ladder step may have.
	maxFailShare = 0.001
	// reloadEvery is the POST /-/reload period during the high phase: four
	// a second, so a run's reload_ms is a median of a dozen or more.
	reloadEvery = 250 * time.Millisecond
	// chunk is how many consecutive requests one latency window holds. A
	// phase's p50 and p99 are the medians of its windows' p50 and p99, so
	// a short stall on the shared host moves one window, not the figure; a
	// window's p99 has ten requests beyond it.
	chunk = 1000
	// spanHeader carries a request's trace and span ids to the handler in
	// traced runs.
	spanHeader = "X-Perfbench-Span"
)

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	rate                 float64
	sent, ok, failed     int64
	unsent               int64 // due in the window but never sent: backlog
	p50Ms, p99Ms, lateMs float64
	// p99AllMs is the p99 over every request of the phase, unwindowed: the
	// ladder's pass test, which must see a backlog that grows over a step.
	p99AllMs float64
	// allocKB is the heap allocated per sent request, client and server
	// together, in KiB.
	allocKB float64
}

// serveShare is the share of --seconds the serving phases take.
func serveShare(traced bool) float64 {
	s := 2*warmShare + baseShare + lowShare + highShare
	if traced {
		s += ladderShare
	}
	return s
}

// serveResult is what the serving phases measured.
type serveResult struct {
	// base is the low rate against a bare handler: what the load generator
	// and net/http allocate per request without the serving stack.
	base      phaseStats
	low, high phaseStats
	// ladder sums the request counts of the ladderSteps ladder steps.
	ladder       phaseStats
	ladderSteps  int
	maxRPS       float64
	reloadMs     []float64
	sent, failed int64
	reloads      int64
	lateP99Ms    float64
	registry     obs.RegistrySnapshot
}

// server is the serving stack under test on a loopback listener.
type server struct {
	s    *serve.Server
	hs   *http.Server
	done chan error
	url  string
}

func startServer(in *inputs, minAccuracy float64, tr *tracer, reloadSpan *atomic.Int64) (*server, *obs.Registry, error) {
	reg := obs.NewRegistry()
	cfg := serve.Config{
		Registry: reg,
		Probe:    &serve.Probe{Path: in.probePath, MinAccuracy: minAccuracy},
	}
	if tr != nil {
		cfg.Loader = tracedLoader(tr, reloadSpan)
	}
	s := serve.New(cfg)
	if _, err := s.Load(in.modelPath); err != nil {
		s.Drain(context.Background())
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain(context.Background())
		return nil, nil, err
	}
	h := s.Handler()
	if tr != nil {
		h = tracedHandler(tr, h)
	}
	srv := &server{s: s, hs: &http.Server{Handler: h}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { srv.done <- srv.hs.Serve(ln) }()
	return srv, reg, nil
}

// stop shuts the listener, waits for the serve loop to return and drains
// the pipeline.
func (srv *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.hs.Shutdown(ctx)
	if e := <-srv.done; e != http.ErrServerClosed && err == nil {
		err = e
	}
	if e := srv.s.Drain(ctx); err == nil {
		err = e
	}
	return err
}

// tracedHandler records a "handler" span around every request, parented to
// the client's request span named in spanHeader.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent := parseSpanHeader(r.Header.Get(spanHeader))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.record(trace, parent, "handler", t0, time.Now())
	})
}

func parseSpanHeader(v string) (trace, id int64) {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return 0, 0
	}
	trace, _ = strconv.ParseInt(a, 10, 64)
	id, _ = strconv.ParseInt(b, 10, 64)
	return trace, id
}

// tracedLoader wraps cmpdt.LoadPredictor with a "serve_load" span,
// parented to the reload that triggered it, and returns a predictor whose
// batch calls record "serve_score" spans.
func tracedLoader(tr *tracer, reloadSpan *atomic.Int64) func(string) (cmpdt.Predictor, error) {
	return func(path string) (cmpdt.Predictor, error) {
		t0 := time.Now()
		p, err := cmpdt.LoadPredictor(path)
		parent := reloadSpan.Load()
		tr.record(parent, parent, "serve_load", t0, time.Now())
		if err != nil {
			return nil, err
		}
		return tracedPredictor{Predictor: p, tr: tr}, nil
	}
}

// tracedPredictor records one "serve_score" span per micro-batch the
// server scores.
type tracedPredictor struct {
	cmpdt.Predictor
	tr *tracer
}

func (p tracedPredictor) PredictBatchWorkers(dst []int, records [][]float64, workers int) []int {
	t0 := time.Now()
	out := p.Predictor.PredictBatchWorkers(dst, records, workers)
	p.tr.record(p.tr.newID(), 0, "serve_score", t0, time.Now())
	return out
}

// loadgen drives single-record POST /predict open-loop: request i is due at
// start + i/rate whatever happened to earlier requests, and its latency is
// timed from that due time, so a stall also charges the requests queued
// behind it. At most conns requests are in flight.
type loadgen struct {
	url    string
	client *http.Client
	conns  int
	bodies [][]byte
	want   []int // the offline prediction for each body
	tr     *tracer
	// version is the last model version a reload confirmed; a response may
	// never carry an older one.
	version *atomic.Int64
	chk     *checks
	// late collects every sent request's lateness (start - due), in ms.
	late []float64
}

func newLoadgen(url string, conns int, bodies [][]byte, want []int, tr *tracer, version *atomic.Int64, chk *checks) *loadgen {
	t := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{url: url, client: &http.Client{Transport: t, Timeout: 5 * time.Second},
		conns: conns, bodies: bodies, want: want, tr: tr, version: version, chk: chk}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// allocRun runs one phase and records the heap allocated per sent request.
func (g *loadgen) allocRun(rate float64, dur, grace time.Duration, offset int) phaseStats {
	runtime.GC() // garbage from earlier phases is not this phase's cost
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := g.run(rate, dur, grace, offset)
	runtime.ReadMemStats(&m1)
	p.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(max(p.sent, 1))
	return p
}

// run offers rate requests per second for dur. Requests still unsent grace
// after the window ends are abandoned and counted as backlog. Every failed
// or abandoned request counts as missing the latency limit.
func (g *loadgen) run(rate float64, dur, grace time.Duration, offset int) phaseStats {
	n := int(rate * dur.Seconds())
	lat := make([]float64, n)
	late := make([]float64, 0, n)
	var lateMu sync.Mutex
	var next, sent, ok, failed, unsent atomic.Int64
	interval := float64(time.Second) / rate
	epoch := time.Now().Add(time.Millisecond)
	cutoff := epoch.Add(dur + grace)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := newPacer()
			if err != nil {
				g.chk.expect(false, "load generator pacer: %v", err)
				return
			}
			defer p.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := epoch.Add(time.Duration(float64(i) * interval))
				if err := p.sleepUntil(due); err != nil {
					g.chk.expect(false, "load generator pacer: %v", err)
					return
				}
				start := time.Now()
				if start.After(cutoff) {
					unsent.Add(1)
					lat[i] = ms(cutoff.Sub(due).Nanoseconds())
					continue
				}
				b := (offset + i) % len(g.bodies)
				good := g.send(b)
				end := time.Now()
				sent.Add(1)
				if good {
					ok.Add(1)
					lat[i] = ms(end.Sub(due).Nanoseconds())
				} else {
					failed.Add(1)
					lat[i] = math.Inf(1)
				}
				lateMu.Lock()
				late = append(late, ms(start.Sub(due).Nanoseconds()))
				lateMu.Unlock()
			}
		}()
	}
	wg.Wait()
	g.late = append(g.late, late...)
	return phaseStats{
		rate: rate, sent: sent.Load(), ok: ok.Load(), failed: failed.Load(), unsent: unsent.Load(),
		p50Ms: windowed(lat, 0.50), p99Ms: windowed(lat, 0.99), lateMs: percentile(late, 0.99),
		p99AllMs: percentile(lat, 0.99),
	}
}

// windowed splits lat into windows of chunk consecutive requests and
// returns the median of the windows' q-quantiles. A phase shorter than two
// windows is one window.
func windowed(lat []float64, q float64) float64 {
	if len(lat) < 2*chunk {
		return percentile(lat, q)
	}
	var qs []float64
	for lo := 0; lo+chunk <= len(lat); lo += chunk {
		qs = append(qs, percentile(lat[lo:lo+chunk], q))
	}
	return median(qs)
}

// send posts body b and checks the answer, unless the generator has no
// offline predictions to check against. It reports whether the request
// succeeded; a wrong answer is a failed check, not a failed request.
func (g *loadgen) send(b int) bool {
	req, err := http.NewRequest(http.MethodPost, g.url+"/predict", bytes.NewReader(g.bodies[b]))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	var trace, id int64
	if g.tr != nil {
		trace, id = g.tr.newID(), g.tr.newID()
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", trace, id))
	}
	floor := g.version.Load()
	t0 := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	g.tr.recordID(trace, id, 0, "request", t0, time.Now())
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var out struct {
		ClassIndex   int   `json:"class_index"`
		ModelVersion int64 `json:"model_version"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		g.chk.expect(false, "undecodable /predict answer %q: %v", body, err)
		return true
	}
	if g.want == nil {
		return true
	}
	g.chk.expect(out.ClassIndex == g.want[b], "served class %d for holdout row %d, offline prediction is %d", out.ClassIndex, b, g.want[b])
	g.chk.expect(out.ModelVersion >= floor, "served model version %d after version %d was confirmed", out.ModelVersion, floor)
	return true
}

// reloader posts /-/reload every reloadEvery until stop is closed, checking
// that each reload advances the model version by one.
func reloader(url string, tr *tracer, reloadSpan, version *atomic.Int64, chk *checks, stop <-chan struct{}) (tookMs []float64) {
	client := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	tick := time.NewTicker(reloadEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return tookMs
		case <-tick.C:
		}
		trace := tr.newID()
		reloadSpan.Store(trace)
		t0 := time.Now()
		resp, err := client.Post(url+"/-/reload", "application/json", nil)
		if err != nil {
			chk.expect(false, "reload: %v", err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		tr.recordID(trace, trace, 0, "reload", t0, t1)
		var out struct {
			ModelVersion int64 `json:"model_version"`
		}
		if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
			chk.expect(false, "reload answered %d: %s", resp.StatusCode, body)
			continue
		}
		prev := version.Load()
		chk.expect(out.ModelVersion == prev+1, "reload gave model version %d after %d", out.ModelVersion, prev)
		version.Store(out.ModelVersion)
		tookMs = append(tookMs, float64(t1.Sub(t0))/1e6)
	}
}

// bareReply is a /predict-shaped answer of the same length as the serving
// stack's, so the client reads and decodes as much.
var bareReply = []byte(`{"class":"GroupA","class_index":0,"model_version":1}` + "\n")

// baseline drives the low rate against a handler that drains the body and
// answers bareReply, on its own loopback listener, and returns the phase:
// its allocKB is what the load generator and net/http allocate per request.
func baseline(bodies [][]byte, conns int, budget time.Duration, chk *checks) (phaseStats, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return phaseStats{}, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(bareReply)
	})}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	var version atomic.Int64
	g := newLoadgen("http://"+ln.Addr().String(), conns, bodies, nil, nil, &version, chk)
	g.allocRun(lowRate, scale(budget, warmShare), time.Second, 0)
	p := g.allocRun(lowRate, scale(budget, baseShare), time.Second, 0)
	g.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	if e := <-done; e != http.ErrServerClosed && err == nil {
		err = e
	}
	chk.expect(p.failed+p.unsent == 0, "baseline phase: %d failed and %d abandoned requests", p.failed, p.unsent)
	return p, err
}

// servePhase measures the client-only baseline, then serves the trained
// model and drives the low and high phases and, in traced runs, the
// ladder. budget is the whole run's --seconds; each phase takes its share.
func servePhase(w workload, in *inputs, tres *trainResult, budget time.Duration, conns int, tr *tracer, chk *checks) (*serveResult, error) {
	bodies := make([][]byte, len(in.rows))
	for i, r := range in.rows {
		b, err := json.Marshal(map[string][]float64{"values": r})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	base, err := baseline(bodies, conns, budget, chk)
	if err != nil {
		return nil, fmt.Errorf("baseline phase: %w", err)
	}
	var reloadSpan, version atomic.Int64
	srv, reg, err := startServer(in, w.minAccuracy, tr, &reloadSpan)
	if err != nil {
		return nil, fmt.Errorf("starting the server: %w", err)
	}
	version.Store(1)
	g := newLoadgen(srv.url, conns, bodies, tres.offline, tr, &version, chk)
	res := &serveResult{base: base}

	off := 0
	phase := func(rate float64, dur, grace time.Duration) phaseStats {
		p := g.allocRun(rate, dur, grace, off)
		off += int(p.sent + p.unsent)
		res.sent += p.sent
		res.failed += p.failed
		return p
	}
	phase(lowRate, scale(budget, warmShare), time.Second) // warm-up: connections, heap
	res.sent, res.failed = 0, 0
	g.late = g.late[:0]
	res.low = phase(lowRate, scale(budget, lowShare), time.Second)

	stop := make(chan struct{})
	reloads := make(chan []float64, 1)
	go func() { reloads <- reloader(srv.url, tr, &reloadSpan, &version, chk, stop) }()
	res.high = phase(highRate, scale(budget, highShare), time.Second)
	close(stop)
	res.reloadMs = <-reloads
	res.reloads = int64(len(res.reloadMs))

	if tr != nil {
		stepDur := scale(budget, ladderShare/7) // a ladder takes about 7 steps
		step := func(rate float64) phaseStats {
			p := phase(rate, stepDur, 100*time.Millisecond)
			res.ladderSteps++
			res.ladder.sent += p.sent
			res.ladder.ok += p.ok
			res.ladder.failed += p.failed
			res.ladder.unsent += p.unsent
			return p
		}
		res.maxRPS = ladder(res.low, res.high, step)
	}
	res.lateP99Ms = percentile(g.late, 0.99)
	g.close()
	res.registry = reg.Snapshot()
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}
	return res, nil
}

// ladder raises the rate from high in ladderStep steps until a step misses
// the limit, bisects the bracket between the last passing and the first
// failing rate, and returns the highest rate that passed.
func ladder(low, high phaseStats, step func(rate float64) phaseStats) float64 {
	var good, bad phaseStats
	for _, p := range []phaseStats{low, high} {
		if bad.rate == 0 && pass(p) {
			good = p
		} else if bad.rate == 0 {
			bad = p
		}
	}
	for r := highRate * ladderStep; bad.rate == 0 && r <= maxRate; r *= ladderStep {
		if p := step(r); pass(p) {
			good = p
		} else {
			bad = p
		}
	}
	for i := 0; i < bisectSteps && good.rate > 0 && bad.rate > 0; i++ {
		if p := step(math.Sqrt(good.rate * bad.rate)); pass(p) {
			good = p
		} else {
			bad = p
		}
	}
	return good.rate
}

// pass reports whether a step met the latency limit with few enough
// failed or abandoned requests.
func pass(p phaseStats) bool {
	return p.p99AllMs <= latencyLimitMs && float64(p.failed+p.unsent) <= maxFailShare*float64(p.sent+p.unsent)
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }
