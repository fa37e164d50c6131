package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark reads time with its own clock, never internal/clock, so a
// change to that package cannot change the ruler.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

const (
	warmOps      = 1000                   // foreground operations that end set-up
	watchdogNs   = int64(2 * time.Second) // an operation older than this is abandoned
	tableRows    = 1 << 16                // rows of the key-value workloads
	valueBytes   = 64                     // their value size
	workloadCap  = 90 * time.Second       // wall-clock cap beyond set-up and window
	hostWarmSpin = 2 * time.Second        // see warmHost
	traceBufReqs = 80000                  // request traces preallocated per goroutine
)

// env is what a pass gives every workload.
type env struct {
	seed    uint64
	nproc   int    // load-generating goroutines / connections at most
	workers int    // simulated workers, max(1, nproc-1)
	outDir  string // trace files and on-disk databases go here
	spans   bool   // traced pass: record spans
	// hostWarm is how long every CPU spins before set-up and before a window
	// (warmHost); hostBusy says a window has only just ended, so the spin before
	// set-up can be left out.
	hostWarm time.Duration
	hostBusy bool
}

func newEnv(seed uint64, outDir string, spans bool) *env {
	n := runtime.NumCPU()
	return &env{seed: seed, nproc: n, workers: max(1, n-1), outDir: outDir, spans: spans, hostWarm: hostWarmSpin}
}

// warmHost spins every CPU for d. A virtual machine's host adapts how fast it
// wakes an idle vCPU to the recent load: after a busy spell time.Sleep(10µs),
// epoll and futex wake-ups return several times sooner than on a host that
// has seen the guest idle, and the state lasts tens of seconds. wire_kv, whose
// workers sleep between requests, read 6.5k op/s started cold and 13k op/s
// started after a CPU-bound run. Spinning first puts every window on the same
// (busy) side of that switch, whatever ran before it.
func warmHost(d time.Duration) {
	var wg sync.WaitGroup
	end := now() + int64(d)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now() < end {
			}
		}()
	}
	wg.Wait()
}

// workload is one named traffic mix. A pass calls setup, warm, run, collect,
// check and close in that order, once.
type workload interface {
	// setup opens the database, declares the schema, loads the data and
	// readies the load generators.
	setup(e *env) error
	// warm drives load until warmOps foreground operations have completed.
	warm()
	// run drives load for d and returns the measured window in seconds.
	run(d time.Duration) float64
	// collect fills the workload's metrics; it runs before close so public
	// counters are still readable.
	collect(res *passResult, windowS float64)
	// check verifies the outputs and returns one line per violation. It may
	// close (and reopen) the database.
	check(res *passResult) []string
	close()
	traces() []*traceBuf
	// setSpans switches span recording on or off (traced pass only), and work
	// returns the units of work the last window completed; together they give
	// trace.overhead_pct from two windows on one instance.
	setSpans(on bool)
	work() float64
}

// value is a metric value with the number of samples behind it.
type value struct {
	V float64 `json:"value"`
	N uint64  `json:"n"`
}

// passResult is everything one pass of one workload measured.
type passResult struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	E2E       map[string]value `json:"end_to_end"`
	Layer     map[string]value `json:"per_layer,omitempty"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	TailPct   float64          `json:"tail_percentile"`
	Problems  []string         `json:"problems,omitempty"` // correctness violations
	Invalid   string           `json:"invalid,omitempty"`  // why the run is not a result
	Notes     []string         `json:"notes,omitempty"`
}

func (r *passResult) correct() bool { return len(r.Problems) == 0 }

func (r *passResult) setE(name string, v float64, n uint64) { r.E2E[name] = value{v, n} }
func (r *passResult) setL(name string, v float64, n uint64) { r.Layer[name] = value{v, n} }

// procSnap is the process-wide state read before and after a window.
type procSnap struct {
	mem   runtime.MemStats
	cpuNs int64
}

func readProc() procSnap {
	var p procSnap
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return p
}

// setupOnce builds one instance of the workload and warms it; the time this
// takes is setup_s.
func setupOnce(name string, e *env) (workload, float64, error) {
	w := newWorkload(name)
	t0 := now()
	if err := w.setup(e); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s: setup: %w", name, err)
	}
	w.warm()
	return w, float64(now()-t0) / 1e9, nil
}

// runPass measures one workload once, on a fresh instance.
func runPass(name string, e *env, d time.Duration) (*passResult, error) {
	res := &passResult{Workload: name, Traced: e.spans, E2E: map[string]value{}, Layer: map[string]value{}}
	capTimer := time.AfterFunc(workloadCap+d, func() {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its wall-clock cap, giving up; goroutines:\n%s\n", name, buf[:runtime.Stack(buf, true)])
		os.Exit(3)
	})
	defer capTimer.Stop()

	runtime.GC() // an earlier pass's instance is garbage by now: every set-up starts from the same heap
	if !e.hostBusy {
		warmHost(e.hostWarm)
	}
	w, setupS, err := setupOnce(name, e)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res.setE("setup_s", setupS, 1)

	warmHost(e.hostWarm)
	var plainRate float64
	if e.spans {
		// A quarter-length window with spans off on the same instance: the
		// work rate the traced window is compared with.
		w.setSpans(false)
		s := w.run(d / 4)
		plainRate = w.work() / s
		w.setSpans(true)
	}
	runtime.GC()
	before := readProc()
	windowS := w.run(d)
	after := readProc()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.setE("live_heap_mb", float64(ms.HeapAlloc)/(1<<20), 1)

	w.collect(res, windowS)
	fg := max(res.E2E["tps"].N, 1)
	if e.spans {
		res.setL("proc.alloc_bytes_per_txn", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/float64(fg), fg)
		res.setL("proc.allocs_per_txn", float64(after.mem.Mallocs-before.mem.Mallocs)/float64(fg), fg)
		res.setL("proc.cpu_us_per_txn", float64(after.cpuNs-before.cpuNs)/1e3/float64(fg), fg)
		res.setL("proc.gc_pause_total_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, uint64(after.mem.NumGC-before.mem.NumGC))
		var st spanStats
		for _, b := range w.traces() {
			st.addBuf(b)
		}
		fillSpanRows(res, &st)
		if plainRate > 0 {
			res.setL("trace.overhead_pct", 100*(1-w.work()/windowS/plainRate), uint64(w.work()))
		}
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeTraceFile(fmt.Sprintf("%s/trace-%s.json", e.outDir, name), w.traces()); err != nil {
			return nil, err
		}
	}
	res.Problems = w.check(res)
	return res, nil
}

// runRounds measures one workload rounds times, each round on a fresh instance
// with its own set-up and a window of d/rounds, and reports every metric as the
// median of the rounds; counts are summed. One instance in five or so runs a
// tenth slower than its neighbours from its first second to its last (where
// the host put its threads, how its heap came to lie), so a longer window on
// that instance reads the same; the median over fresh instances leaves it out.
// It also makes setup_s a median instead of a single sample.
func runRounds(name string, e *env, d time.Duration, rounds int) (*passResult, error) {
	out := &passResult{Workload: name, Traced: e.spans, E2E: map[string]value{}, Layer: map[string]value{}, TailPct: 99}
	vals := map[string][]float64{}
	samples := map[string]uint64{}
	for i := 0; i < rounds; i++ {
		round := *e
		round.hostBusy = i > 0
		res, err := runPass(name, &round, d/time.Duration(rounds))
		if err != nil {
			return nil, err
		}
		for k, v := range res.E2E {
			vals[k] = append(vals[k], v.V)
			samples[k] += v.N
		}
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		out.TailPct = min(out.TailPct, res.TailPct)
		out.Problems = append(out.Problems, res.Problems...)
		out.Notes = append(out.Notes, res.Notes...)
		if res.Invalid != "" && out.Invalid == "" {
			out.Invalid = fmt.Sprintf("round %d of %d: %s", i+1, rounds, res.Invalid)
		}
	}
	for k, v := range vals {
		out.setE(k, median(v), samples[k])
	}
	out.setE("fail_ratio", float64(out.Failed)/float64(out.Attempted), out.Attempted)
	return out, nil
}

// client is one closed-loop load generator: it sends its next operation only
// after the previous one completed (or was abandoned by the watchdog).
type client struct {
	id  int
	r   *rnd
	fg  hist // foreground latency, every operation
	alt hist // the workload's second class: writes (wire_kv), cross-shard (xshard_transfer)

	attempted, failed uint64 // this window
	acked, abandoned  uint64 // since load, for the correctness checks

	ops      atomic.Uint64 // operations completed in this phase
	opStart  atomic.Int64  // start stamp of the operation in flight, 0 when idle
	abandon  chan int64    // the watchdog sends the stamp of the operation to give up
	firstErr error         // the first failure of this window, for the report
	tb       *traceBuf     // tbuf while spans are on, nil otherwise
	tbuf     *traceBuf
	_        [64]byte // keep neighbouring clients' counters off one cache line
}

// await waits for a submitted operation's outcome or for the watchdog.
func (c *client) await(done <-chan error, stamp int64) (err error, ok bool) {
	for {
		select {
		case err = <-done:
			return err, true
		case s := <-c.abandon:
			if s == stamp {
				return nil, false
			}
		}
	}
}

// finish accounts one operation that ran to an outcome.
func (c *client) finish(t0 int64, err error) (lat int64) {
	lat = now() - t0
	c.opStart.Store(0)
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	} else {
		c.acked++
		c.fg.record(lat)
	}
	c.ops.Add(1)
	return lat
}

// giveUp accounts one operation the watchdog abandoned.
func (c *client) giveUp() {
	c.opStart.Store(0)
	c.attempted++
	c.failed++
	c.abandoned++
	c.ops.Add(1)
}

// closedLoop drives a fixed set of clients and watches over their operations.
type closedLoop struct {
	clients []*client
	op      func(c *client, t0 int64)
	// onStuck abandons the operation c started at stamp; the default wakes
	// the client through its abandon channel.
	onStuck func(c *client, stamp int64)
}

func newClosedLoop(e *env, stream uint64, traceEvery int, op func(c *client, t0 int64)) *closedLoop {
	l := &closedLoop{op: op}
	l.onStuck = func(c *client, stamp int64) {
		select {
		case c.abandon <- stamp:
		default:
		}
	}
	for i := 0; i < e.nproc; i++ {
		c := &client{id: i, r: newRnd(e.seed, stream+uint64(i)), abandon: make(chan int64, 1)}
		if e.spans {
			c.tbuf = newTraceBuf(traceBufReqs, traceEvery, uint32(i)<<24)
			c.tb = c.tbuf
		}
		l.clients = append(l.clients, c)
	}
	return l
}

// drive runs every client until the clock passes until (window) or, when
// until is 0, until ops operations completed in total (warm-up).
func (l *closedLoop) drive(until int64, ops uint64) {
	for _, c := range l.clients {
		c.ops.Store(0)
	}
	total := func() (n uint64) {
		for _, c := range l.clients {
			n += c.ops.Load()
		}
		return n
	}
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t := now()
				for _, c := range l.clients {
					if s := c.opStart.Load(); s != 0 && t-s > watchdogNs {
						l.onStuck(c, s)
					}
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				t0 := now()
				if until != 0 && t0 >= until || until == 0 && total() >= ops {
					return
				}
				c.opStart.Store(t0)
				l.op(c, t0)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	watch.Wait()
}

func (l *closedLoop) warm() { l.drive(0, warmOps) }

// run resets the window statistics and drives the clients for d.
func (l *closedLoop) run(d time.Duration) float64 {
	for _, c := range l.clients {
		c.fg.reset()
		c.alt.reset()
		c.attempted, c.failed, c.firstErr = 0, 0, nil
		if c.tbuf != nil {
			c.tbuf.used, c.tbuf.seen, c.tbuf.dropped = 0, 0, 0
		}
	}
	t0 := now()
	l.drive(t0+int64(d), 0)
	return float64(now()-t0) / 1e9
}

func (l *closedLoop) traces() []*traceBuf {
	var out []*traceBuf
	for _, c := range l.clients {
		out = append(out, c.tbuf)
	}
	return out
}

func (l *closedLoop) setSpans(on bool) {
	for _, c := range l.clients {
		c.tb = nil
		if on {
			c.tb = c.tbuf
		}
	}
}

func (l *closedLoop) work() (n float64) {
	for _, c := range l.clients {
		n += float64(c.fg.n)
	}
	return n
}

// totals merges the clients' window statistics.
func (l *closedLoop) totals() (fg, alt *hist, attempted, failed, abandoned, acked uint64) {
	fg, alt = new(hist), new(hist)
	for _, c := range l.clients {
		fg.merge(&c.fg)
		alt.merge(&c.alt)
		attempted += c.attempted
		failed += c.failed
		abandoned += c.abandoned
		acked += c.acked
	}
	return
}

// fillCommon sets the end-to-end metrics every workload has from its
// foreground histogram and counts.
func (l *closedLoop) fillCommon(res *passResult, fg *hist, attempted, failed uint64, windowS float64) {
	for _, c := range l.clients {
		if c.firstErr != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("client %d: %d failed, %d of them abandoned by the watchdog; first error: %v", c.id, c.failed, c.abandoned, c.firstErr))
		}
	}
	fillCommon(res, fg, attempted, failed, windowS)
}

func fillCommon(res *passResult, fg *hist, attempted, failed uint64, windowS float64) {
	res.Attempted, res.Failed = max(attempted, 1), failed
	res.setE("lat_p50_us", fg.quantile(0.5)/1e3, fg.n)
	tail, pct := fg.tail()
	res.TailPct = pct
	res.setE("lat_p99_us", tail/1e3, fg.n)
	res.setE("tps", float64(fg.n)/windowS, fg.n)
	res.setE("fail_ratio", float64(failed)/float64(max(attempted, 1)), attempted)
}
