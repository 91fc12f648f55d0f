package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run reports, in
// the order BENCHMARK.json lists them.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"rows_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"learn_p50_ms", "ms"},
	{"retrain_s", "s"},
	{"accuracy", "ratio"},
	{"model_kb", "KB"},
	{"rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer the workload does not reach reads 0 and is named on the
// "not exercised" line of the run's output.
var layerMetrics = []metricDef{
	{"core.encode_ms", "ms"},
	{"core.adapt_ms", "ms"},
	{"core.score_ms", "ms"},
	{"core.regen_ms", "ms"},
	{"core.regenerated_dims", "count"},
	{"core.iterations", "count"},
	{"encoding.encode_gflops", "GFLOP/s"},
	{"encoding.encode_us_per_row", "us"},
	{"model.score_us_per_row", "us"},
	{"model.adapt_us_per_sample", "us"},
	{"disthd.predict_us_per_row", "us"},
	{"bitpack.predict_us_per_row", "us"},
	{"disthd.observe_us", "us"},
	{"disthd.retrain_ms", "ms"},
	{"disthd.gate_ms", "ms"},
	{"disthd.new_replica_us", "us"},
	{"serve.handler_us_p50.predict_batch_bin", "us"},
	{"serve.handler_us_p50.predict_batch_json", "us"},
	{"serve.handler_us_p50.predict", "us"},
	{"serve.handler_us_p50.learn", "us"},
	{"serve.transport_us_p50", "us"},
	{"serve.rows_per_batch", "rows"},
	{"serve.learner_export_ms", "ms"},
	{"serve.learner_restore_ms", "ms"},
	{"wire.decode_us_per_frame", "us"},
	{"wire.encode_us_per_frame", "us"},
	{"wire.bytes_per_row", "B"},
	{"registry.acquire_us_p50", "us"},
	{"registry.acquire_us_p99", "us"},
	{"registry.wake_ms_p50", "ms"},
	{"registry.wakes", "count/1k_req"},
	{"registry.evictions", "count/1k_req"},
	{"cluster.worker_rtt_us_p50", "us"},
	{"cluster.worker_rtt_us_p99", "us"},
	{"cluster.coordinator_us_p50", "us"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.fallback_rows", "count"},
	{"runtime.allocs_per_request", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"loadgen.late_p99_ms", "ms"},
}

// windows is how many rounds of load a serving workload runs: a
// closed-loop window, a fixed-rate window, then one more set-up, a chunk
// of labeled feedback and a retrain. The host's speed drifts by tens of
// percent over seconds, so every timed metric is a median over samples
// spread across the whole run like this, never over a burst.
const windows = 9

// fixedRateN is the size of one fixed-rate window; the p99 is taken over
// all windows together, windows·fixedRateN samples. The self-check's
// tiny runs send fewer.
func fixedRateN(tiny bool) int {
	if tiny {
		return 40
	}
	return 400
}

// clients is the number of load-generator goroutines, and of client
// connections: one per CPU, at most two.
var clients = min(2, runtime.NumCPU())

// work turns a phase's share of the -seconds budget into a fixed
// operation count: share·seconds times the rate the phase sustains on
// the reference host. Counts depend on -seconds alone, never on measured
// time or the seed, so every run attempts the same operations and the
// failed share is the same in every run.
func work(seconds, share, perSecond float64, floor int) int {
	return max(floor, int(seconds*share*perSecond+0.5))
}

// opts is one run's parameters.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every shape and count so the self-check runs each
	// workload in a few seconds; the checks are the same.
	tiny bool
	// traceDir receives the traced run's span file.
	traceDir string
}

// phase counts the operations of one phase of a workload.
type phase struct {
	name      string
	attempted atomic.Int64
	failed    atomic.Int64
}

// done records one operation; a non-nil err counts it as failed.
func (p *phase) done(err error) {
	p.attempted.Add(1)
	if err != nil {
		p.failed.Add(1)
	}
}

// check is one correctness verdict of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// run collects everything one workload run reports.
type run struct {
	o      opts
	w      io.Writer
	tr     *tracer // nil on untraced runs
	phases []*phase
	e2e    map[string]float64
	layer  map[string]float64
	checks []check
	gc     gcWindow
	// meters hold the samples of the timed end-to-end metrics.
	meters []*meter
}

func newRun(o opts, w io.Writer) *run {
	r := &run{o: o, w: w, e2e: map[string]float64{}, layer: map[string]float64{}}
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

// phase registers a new operation counter.
func (r *run) phase(name string) *phase {
	p := &phase{name: name}
	r.phases = append(r.phases, p)
	return p
}

// check records a correctness verdict.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// logf prints one informational line of the run's output.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// correct reports whether every check passed.
func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// totals sums the operation counters of every phase.
func (r *run) totals() (attempted, failed int64) {
	for _, p := range r.phases {
		attempted += p.attempted.Load()
		failed += p.failed.Load()
	}
	return attempted, failed
}

// result is the JSON object printed as the last line of every run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the per-phase counts, the checks and every metric of
// the run, then the result line.
func (r *run) report() error {
	for _, p := range r.phases {
		r.logf("phase %-14s attempted=%d failed=%d", p.name, p.attempted.Load(), p.failed.Load())
	}
	for _, c := range r.checks {
		verdict := "ok  "
		if !c.ok {
			verdict = "FAIL"
		}
		r.logf("check %s %s: %s", verdict, c.name, c.detail)
	}
	r.logMeters()
	// End-to-end numbers are printed on traced runs too, labeled, so
	// they sit next to the untraced run's and show the tracing overhead.
	label := "e2e"
	if r.o.trace {
		label = "e2e(traced)"
	}
	for _, m := range e2eMetrics {
		r.logf("%s %-16s %14.6g %s", label, m.name, r.e2e[m.name], m.unit)
	}
	defs, vals := e2eMetrics, r.e2e
	if r.o.trace {
		defs, vals = layerMetrics, r.layer
		var idle []string
		for _, m := range layerMetrics {
			if _, ok := r.layer[m.name]; !ok {
				idle = append(idle, m.name)
			}
			r.logf("layer %-40s %14.6g %s", m.name, r.layer[m.name], m.unit)
		}
		r.logf("not exercised on %s (reported as 0): %v", r.o.workload, idle)
	}
	res := result{Correct: r.correct(), Metrics: map[string]metricValue{}}
	res.Attempted, res.Failed = r.totals()
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.w, "%s\n", b)
	return err
}

// logMeters prints every metric measured by a meter: its samples net of
// steal in the order they were taken, so a run shows how much the host
// moved them, and the unstolen share of each.
func (r *run) logMeters() {
	for _, m := range r.meters {
		var b strings.Builder
		for i, x := range m.net {
			fmt.Fprintf(&b, " %.4g@%.2f", x, m.kept[i])
		}
		r.logf("samples %s (net of steal @ unstolen share):%s", m.name, b.String())
	}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99 returns the 99th percentile, which needs at least 1000 samples to
// have ten beyond it.
func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// timedGC collects garbage before a timed phase so one phase's garbage
// is not charged to the next.
func timedGC() { runtime.GC() }

// timed runs a timed request phase of n requests after a GC; on a
// traced run it also charges the phase's allocations and GC pauses to
// the runtime layer metrics.
func (r *run) timed(n int, f func()) {
	timedGC()
	if r.tr == nil {
		f()
		return
	}
	r.gc.measure(n, f)
}

// openLoop issues n operations on a fixed schedule: operation i is due
// at start + i/rate and is sent by whichever of the workers takes it, as
// soon as it is due (or at once, if the workers are behind). Latency is
// measured from the due time, so a stall is charged to every request it
// delays; late is how far behind schedule each request was sent.
func openLoop(n, workers int, rate float64, op func(i int)) (lat, late []float64) {
	lat, late = make([]float64, n), make([]float64, n)
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				op(i)
				lat[i] = ms(time.Since(due))
				late[i] = ms(sent.Sub(due))
			}
		}()
	}
	wg.Wait()
	return lat, late
}

// setups times repeated set-ups of a workload: the first is the one the
// run uses, the others are spread over the run and torn down at once.
// train_s is scaled by the unstolen share of the set-ups around it.
type setups struct {
	ph           *phase
	setup, train *meter
}

func (r *run) newSetups(withTrain bool) *setups {
	s := &setups{ph: r.phase("setup"), setup: r.newMeter("setup_s", false)}
	if withTrain {
		s.train = r.newMeter("train_s", false)
	}
	return s
}

// time runs one set-up, recording its wall time and the wall time of the
// cold training inside it.
func (s *setups) time(f func() (trainS float64, err error)) error {
	timedGC()
	iv := startInterval()
	trainS, err := f()
	s.ph.done(err)
	if err != nil {
		return err
	}
	k := iv.busyKept()
	s.setup.add(time.Since(iv.t0).Seconds(), k)
	if s.train != nil {
		s.train.add(trainS, k)
	}
	return nil
}

// report sets setup_s, and train_s when the set-up trains.
func (s *setups) report(r *run) {
	r.e2e["setup_s"] = s.setup.value()
	if s.train != nil {
		r.e2e["train_s"] = s.train.value()
	}
}

// loadResult is what the alternating load windows measured.
type loadResult struct {
	rowsPerS, p50, p99 float64
	late               []float64
	requests           int
}

// loadPhases runs the load of a serving workload: windows rounds of a
// closed-loop window of closedN operations from the client goroutines,
// then a fixed-rate window of openN operations, then between(k) — the
// workload's other sampled steps, spread over the run the same way. op
// sends operation i of its phase (indices run on across windows) and
// returns the rows it got answered. rows_per_s is the median window
// throughput and p50 the median window p50, both net of steal; p99 is the
// wall time over every fixed-rate request.
func (r *run) loadPhases(closedN, openN int, rate float64, op func(closed bool, i int) (int, error), between func(k int) error) (loadResult, error) {
	closed, fixed := r.phase("closed"), r.phase("fixed_rate")
	tput, p50 := r.newMeter("rows_per_s", true), r.newMeter("p50_ms", false)
	var res loadResult
	var lat []float64
	for k := 0; k < windows; k++ {
		rows := make([]int, closedN)
		r.timed(closedN, func() {
			iv := startInterval()
			closedLoop(closedN, clients, func(j int) {
				n, err := op(true, k*closedN+j)
				rows[j] = n
				closed.done(err)
			})
			total := 0
			for _, n := range rows {
				total += n
			}
			tput.add(float64(total)/time.Since(iv.t0).Seconds(), iv.busyKept())
		})
		r.timed(openN, func() {
			iv := startInterval()
			wl, late := openLoop(openN, clients, rate, func(j int) {
				_, err := op(false, k*openN+j)
				fixed.done(err)
			})
			p50.add(median(wl), iv.capacityKept())
			lat, res.late = append(lat, wl...), append(res.late, late...)
		})
		if err := between(k); err != nil {
			return res, err
		}
	}
	res.rowsPerS, res.p50, res.p99 = tput.value(), p50.value(), p99(lat)
	res.requests = windows * (closedN + openN)
	r.logf("load: %d windows of %d closed-loop ops from %d clients and %d ops at %g/s; p99 %.3f ms (%d samples, wall time; not gated), generator late p99 %.3f ms",
		windows, closedN, clients, openN, rate, res.p99, len(lat), p99(res.late))
	return res, nil
}

// closedLoop issues n operations from workers goroutines, each sending
// its next operation as soon as its previous one is answered.
func closedLoop(n, workers int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// gcWindow accumulates allocation counts and GC pause time over the timed
// phases of a traced run, and samples the live heap for its peak.
type gcWindow struct {
	mallocs, pauseNs uint64
	requests         int64
	heapPeak         float64
	stop             chan struct{}
	done             sync.WaitGroup
}

// startHeapSampler samples the heap every 5 ms until stopHeapSampler.
func (g *gcWindow) startHeapSampler() {
	g.stop = make(chan struct{})
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if mb := float64(s[0].Value.Uint64()) / (1 << 20); mb > g.heapPeak {
				g.heapPeak = mb
			}
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
}

func (g *gcWindow) stopHeapSampler() {
	if g.stop != nil {
		close(g.stop)
		g.done.Wait()
	}
}

// measure runs a timed request phase of n requests and adds its
// allocations and GC pauses to the window.
func (g *gcWindow) measure(n int, f func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	g.mallocs += b.Mallocs - a.Mallocs
	g.pauseNs += b.PauseTotalNs - a.PauseTotalNs
	g.requests += int64(n)
}

// runtimeLayer fills the runtime.* layer metrics from the window.
func (r *run) runtimeLayer() {
	if r.gc.requests > 0 {
		r.layer["runtime.allocs_per_request"] = float64(r.gc.mallocs) / float64(r.gc.requests)
	}
	r.layer["runtime.gc_pause_ms"] = float64(r.gc.pauseNs) / 1e6
	r.layer["runtime.heap_peak_mb"] = r.gc.heapPeak
}

// timeMedian runs f reps times and returns the median wall time per
// call divided by per (the work items in one call), in microseconds.
func timeMedian(reps, per int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(per)
	}
	return median(xs)
}

// cpuTicks reads the machine's busy and stolen CPU time from /proc/stat.
func cpuTicks() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	v := func(i int) float64 { x, _ := strconv.ParseFloat(f[i], 64); return x }
	return v(1) + v(2) + v(3) + v(6) + v(7), v(8)
}

// userHZ is the unit of /proc/stat's counters: ticks per second.
const userHZ = 100

// interval marks the start of a timed interval: the time and the
// machine's busy and stolen CPU time at that moment.
type interval struct {
	t0          time.Time
	busy, steal float64
}

func startInterval() interval {
	b, s := cpuTicks()
	return interval{t0: time.Now(), busy: b, steal: s}
}

// busyKept is the share of the machine's busy CPU time since iv that was
// not stolen: how much of its wall time work that kept the CPUs busy
// actually had them. An interval too short to count a busy tick in keeps
// its wall time.
func (iv interval) busyKept() float64 {
	b, s := cpuTicks()
	if b-iv.busy <= 0 {
		return 1
	}
	return (b - iv.busy) / (b - iv.busy + s - iv.steal)
}

// capacityKept is the share of the CPUs' capacity since iv that was not
// stolen. Requests at a fixed rate leave the CPUs mostly idle, and one is
// slowed by steal in the measure that the CPUs are away while it wants
// them; scaling its latency by the share of the busy time not stolen
// would take off the idle time between requests too.
func (iv interval) capacityKept() float64 {
	_, s := cpuTicks()
	wall := time.Since(iv.t0).Seconds() * float64(runtime.NumCPU())
	if wall <= 0 {
		return 1
	}
	return max(0, 1-(s-iv.steal)/userHZ/wall)
}

// meter collects the samples of one timed metric, net of hypervisor
// steal. On a shared virtual machine the hypervisor takes the CPUs away
// now and then (/proc/stat "steal"), by a share that moves between a few
// percent and a half within a minute, and wall time then measures the
// neighbours as much as the program. So each sample is scaled by the
// share of its interval the CPUs were not stolen — of the busy CPU time
// for work that keeps the CPUs busy (a set-up, a training, a retrain, a
// closed-loop window), which is how the kernel leaves steal out of a
// process's CPU time; of the CPU capacity for the p50 of a fixed-rate
// window. Where /proc/stat cannot be read, nothing is taken off.
type meter struct {
	name      string
	rate      bool // samples are per second, so stolen time lowers them
	net, kept []float64
}

func (r *run) newMeter(name string, rate bool) *meter {
	m := &meter{name: name, rate: rate}
	r.meters = append(r.meters, m)
	return m
}

// add records a sample x measured over an interval of which the share k
// was not stolen.
func (m *meter) add(x, k float64) {
	if m.rate {
		x /= k
	} else {
		x *= k
	}
	m.net, m.kept = append(m.net, x), append(m.kept, k)
}

// value is the median sample net of steal.
func (m *meter) value() float64 { return median(m.net) }
