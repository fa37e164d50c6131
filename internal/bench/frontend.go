package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"preemptdb"
	"preemptdb/internal/clock"
	"preemptdb/internal/metrics"
	"preemptdb/internal/rng"
	"preemptdb/server"
)

// Frontend benchmarks the network front-end end to end over loopback TCP:
//
//   - Phase A (cache A/B): closed-loop clients issue single-key Gets with a
//     Zipfian key distribution against the same server twice — hot-key cache
//     off, then on. The cached run reports its hit rate (skewed workloads
//     should exceed 80%) and both runs report wire round-trip latency; cache
//     hits answer on the connection's goroutine without entering a scheduler
//     core.
//   - Phase B (admission A/B): a low-priority RMW flood shares the server
//     with paced high-priority point reads, with the front-end's per-class
//     in-flight limit off, then on. Admission sheds the flood at the edge
//     with typed statusQueueFull frames (counted), and the high-priority
//     tail must not regress when admission is enabled.
//
// Both phases cross the server's connection path and zero-copy framing; the
// figures are closed-loop and CPU-sensitive, so results carry NumCPU.

// FrontendCachePoint is one cache on/off data point of Phase A.
type FrontendCachePoint struct {
	Cache      bool            `json:"cache"`
	Gets       uint64          `json:"gets"`
	GetsPerSec float64         `json:"gets_per_sec"`
	HitRate    float64         `json:"hit_rate"`
	Latency    metrics.Summary `json:"latency"`
}

// FrontendFloodPoint is one admission on/off data point of Phase B.
type FrontendFloodPoint struct {
	Admission bool            `json:"admission"`
	HiLatency metrics.Summary `json:"hi_latency"`
	LoTxns    uint64          `json:"lo_txns"`
	LoShed    uint64          `json:"lo_shed"`
	ConnsShed uint64          `json:"conns_shed"`
}

// FrontendResult is the frontend experiment's JSON document
// (BENCH_frontend.json).
type FrontendResult struct {
	Keys        int                  `json:"keys"`
	ZipfTheta   float64              `json:"zipf_theta"`
	ReadClients int                  `json:"read_clients"`
	NumCPU      int                  `json:"num_cpu"`
	CacheSweep  []FrontendCachePoint `json:"cache_sweep"`
	Flood       []FrontendFloodPoint `json:"admission_flood"`
}

const (
	frontendKeys    = 4096
	frontendTheta   = 0.99
	frontendClients = 4
	frontendValue   = 64
)

func frontendKey(i uint64) []byte {
	return []byte(fmt.Sprintf("key-%06d", i))
}

// startFrontendServer opens an in-memory DB with the given front-end config,
// preloads the key space, and serves it on a loopback listener.
func startFrontendServer(cfg preemptdb.Config) (*preemptdb.DB, *server.Server, string, error) {
	db, err := preemptdb.Open("", cfg)
	if err != nil {
		return nil, nil, "", err
	}
	db.CreateTable("kv")
	val := make([]byte, frontendValue)
	for base := 0; base < frontendKeys; base += 256 {
		lo, hi := base, base+256
		if hi > frontendKeys {
			hi = frontendKeys
		}
		if err := db.Run(func(tx *preemptdb.Txn) error {
			for i := lo; i < hi; i++ {
				if err := tx.Put("kv", frontendKey(uint64(i)), val); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			db.Close()
			return nil, nil, "", err
		}
	}
	srv := server.New(db)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, nil, "", err
	}
	return db, srv, addr.String(), nil
}

// frontendCachePhase runs the Zipfian read workload against one server
// configuration and reports throughput, latency, and the cache hit rate.
func frontendCachePhase(dur time.Duration, cacheBytes int64) (FrontendCachePoint, error) {
	pt := FrontendCachePoint{Cache: cacheBytes > 0}
	db, srv, addr, err := startFrontendServer(preemptdb.Config{Workers: 2, CacheBytes: cacheBytes})
	if err != nil {
		return pt, err
	}
	defer db.Close()
	defer srv.Close()

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		hist   metrics.Histogram
		gets   uint64
		runErr error
	)
	deadline := clock.Nanos() + int64(dur)
	for c := 0; c < frontendClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := server.Dial(addr)
			if err != nil {
				mu.Lock()
				runErr = err
				mu.Unlock()
				return
			}
			defer cl.Close()
			r := rng.New(uint64(0x9e3779b9*(c+1)) | 1)
			zipf := rng.NewZipf(r, frontendKeys, frontendTheta)
			var local metrics.Histogram
			var n uint64
			for clock.Nanos() < deadline {
				k := frontendKey(zipf.Next())
				start := clock.Nanos()
				if _, err := cl.Get("kv", k); err != nil {
					mu.Lock()
					runErr = fmt.Errorf("get: %w", err)
					mu.Unlock()
					return
				}
				local.Record(clock.Nanos() - start)
				n++
			}
			mu.Lock()
			hist.Merge(&local)
			gets += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if runErr != nil {
		return pt, runErr
	}
	st := db.Stats()
	pt.Gets = gets
	pt.GetsPerSec = float64(gets) / dur.Seconds()
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		pt.HitRate = float64(st.CacheHits) / float64(lookups)
	}
	pt.Latency = hist.Summarize()
	return pt, nil
}

// frontendFloodPhase runs the low-priority flood + paced high-priority reads
// against one admission configuration.
func frontendFloodPhase(dur, arrival time.Duration, admission bool) (FrontendFloodPoint, error) {
	pt := FrontendFloodPoint{Admission: admission}
	cfg := preemptdb.Config{Workers: 2}
	if admission {
		// Bound low-priority in-flight requests at the edge; high priority
		// stays unlimited. Shed requests get typed statusQueueFull frames and
		// the connections survive to retry.
		cfg.LoInFlightLimit = 2
	}
	db, srv, addr, err := startFrontendServer(cfg)
	if err != nil {
		return pt, err
	}
	defer db.Close()
	defer srv.Close()

	var (
		wg             sync.WaitGroup
		mu             sync.Mutex
		hiHist         metrics.Histogram
		loTxns, loShed uint64
		runErr         error
	)
	deadline := clock.Nanos() + int64(dur)

	// Low-priority flood: closed-loop read-modify-write scripts.
	const loClients = 8
	for c := 0; c < loClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := server.Dial(addr)
			if err != nil {
				mu.Lock()
				runErr = err
				mu.Unlock()
				return
			}
			defer cl.Close()
			r := rng.New(uint64(0xdeadbeef*(c+1)) | 1)
			val := make([]byte, frontendValue)
			var txns, shed uint64
			for clock.Nanos() < deadline {
				k := frontendKey(r.Uint64n(frontendKeys))
				ops := []server.ScriptOp{
					server.GetOp("kv", k),
					server.PutOp("kv", k, val),
				}
				switch _, err := cl.Txn(preemptdb.Low, ops); {
				case err == nil:
					txns++
				case errors.Is(err, server.ErrQueueFull):
					shed++ // typed shed: back off and retry on the same conn
				case errors.Is(err, server.ErrConflict):
					// write-write collision with another flood client; retry
				default:
					mu.Lock()
					runErr = fmt.Errorf("lo txn: %w", err)
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			loTxns += txns
			loShed += shed
			mu.Unlock()
		}(c)
	}

	// High-priority clients: paced single-key reads; the wire round-trip is
	// the figure of merit.
	const hiClients = 2
	for c := 0; c < hiClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := server.Dial(addr)
			if err != nil {
				mu.Lock()
				runErr = err
				mu.Unlock()
				return
			}
			defer cl.Close()
			r := rng.New(uint64(0xfeedface*(c+1)) | 1)
			var local metrics.Histogram
			for clock.Nanos() < deadline {
				k := frontendKey(r.Uint64n(frontendKeys))
				ops := []server.ScriptOp{server.GetOp("kv", k)}
				start := clock.Nanos()
				if _, err := cl.Txn(preemptdb.High, ops); err != nil {
					mu.Lock()
					runErr = fmt.Errorf("hi txn: %w", err)
					mu.Unlock()
					return
				}
				local.Record(clock.Nanos() - start)
				time.Sleep(arrival)
			}
			mu.Lock()
			hiHist.Merge(&local)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if runErr != nil {
		return pt, runErr
	}
	pt.HiLatency = hiHist.Summarize()
	pt.LoTxns = loTxns
	pt.LoShed = loShed
	pt.ConnsShed = db.Stats().ConnsShed
	return pt, nil
}

// Frontend runs both phases and prints the two data series.
func Frontend(opt Options) (*FrontendResult, error) {
	opt = opt.withDefaults()
	res := &FrontendResult{
		Keys:        frontendKeys,
		ZipfTheta:   frontendTheta,
		ReadClients: frontendClients,
		NumCPU:      runtime.NumCPU(),
	}

	fmt.Fprintf(opt.Out, "Front-end wire Gets, Zipf(theta=%.2f) over %d keys, %d closed-loop clients (NumCPU=%d)\n",
		frontendTheta, frontendKeys, frontendClients, res.NumCPU)
	cacheTab := metrics.NewTable("cache", "gets/s", "hit-rate", "p50", "p99")
	for _, cacheBytes := range []int64{0, 8 << 20} {
		pt, err := frontendCachePhase(opt.Duration, cacheBytes)
		if err != nil {
			return nil, err
		}
		res.CacheSweep = append(res.CacheSweep, pt)
		cacheTab.AddRow(fmt.Sprintf("%v", pt.Cache),
			fmt.Sprintf("%.0f", pt.GetsPerSec),
			fmt.Sprintf("%.1f%%", pt.HitRate*100),
			metrics.FormatNanos(float64(pt.Latency.P50)),
			metrics.FormatNanos(float64(pt.Latency.P99)))
	}
	fmt.Fprintln(opt.Out, cacheTab)

	fmt.Fprintf(opt.Out, "High-priority reads (paced %v) under a low-priority RMW flood\n", opt.ArrivalInterval)
	floodTab := metrics.NewTable("admission", "hi-p50", "hi-p99", "lo-txns", "lo-shed")
	for _, admission := range []bool{false, true} {
		pt, err := frontendFloodPhase(opt.Duration, opt.ArrivalInterval, admission)
		if err != nil {
			return nil, err
		}
		res.Flood = append(res.Flood, pt)
		floodTab.AddRow(fmt.Sprintf("%v", pt.Admission),
			metrics.FormatNanos(float64(pt.HiLatency.P50)),
			metrics.FormatNanos(float64(pt.HiLatency.P99)),
			pt.LoTxns, pt.LoShed)
	}
	fmt.Fprintln(opt.Out, floodTab)
	return res, nil
}
