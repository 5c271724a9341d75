package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rads/internal/buildinfo"
	"rads/internal/graph"
)

// minOps is the op count a measured window reaches before it may end, so
// that at least ten ops lie beyond the reported 90th percentile.
const minOps = 100

// config is one benchmark run.
type config struct {
	workload *workload
	seed     int64
	duration time.Duration
	trace    bool
	// setupReps full set-ups are timed; setup_s is their median.
	setupReps int
	// dir holds the run's scratch files (snapshots) and, for a traced
	// run, the span file.
	dir string
	// tiny shrinks every graph, for the self-test.
	tiny bool
	// corruptOracle falsifies one expected result, for the self-test.
	corruptOracle bool
}

// system is a workload after set-up: the program under test, resident
// and ready to serve ops.
type system interface {
	// oracle computes the expected result of every op type without the
	// layers under test and returns the time it spent per op type.
	// corrupt falsifies one expected result.
	oracle(corrupt bool) (perOp []time.Duration)
	// opTypes is the number of distinct ops; opName names one.
	opTypes() int
	opName(op int) string
	// do runs one op through the program's public entry point and
	// checks its result; a mismatch is an error.
	do(ctx context.Context, op int, lt *layers) error
	// counters returns cumulative program counters, for window deltas.
	counters() map[string]float64
	// shape describes the generated inputs.
	shape() map[string]any
	// graph is a workload graph the kernel micro-measurement samples.
	graph() graph.Store
	close()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result; its JSON form is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Provenance provenance     `json:"-"`
	Shape      map[string]any `json:"-"`
	beyondP90  int
}

type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// window is what one measured stretch of closed-loop load produced.
type window struct {
	latMs  []float64 // every attempted op, failed ones included
	failed int64
	wall   float64
	deltas map[string]float64
	// rssMB holds the peak RSS of each second of the window.
	rssMB []float64
}

func (w window) opsPerS() float64 { return ratio(float64(len(w.latMs)), w.wall) }

func run(cfg config) (*report, error) {
	w := cfg.workload
	lt := newLayers(cfg.trace)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}

	// Set-up is repeated so setup_s is a median; each repetition
	// rebuilds everything from the seed and all but the last are torn
	// down again.
	var sys system
	setupS := make([]float64, 0, cfg.setupReps)
	layerS := map[string][]float64{}
	for r := 0; r < max(cfg.setupReps, 1); r++ {
		if sys != nil {
			sys.close()
			sys = nil // collectable before the next set-up allocates
		}
		runtime.GC()
		times := map[string]float64{}
		start := time.Now()
		s, err := w.setup(cfg, times, lt)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		for k, v := range times {
			layerS[k] = append(layerS[k], v)
		}
		sys = s
	}
	defer sys.close()

	oracleStart := time.Now()
	floor := sys.oracle(cfg.corruptOracle)
	oracleS := time.Since(oracleStart).Seconds()

	// rss_peak_mb covers serving only: the transient memory of the
	// repeated set-ups and of the oracle is not the program's, so freed
	// heap goes back to the OS and the peak count restarts here.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: rss_peak_mb includes set-up and oracle: %v\n", err)
	}

	// Warm-up: the first few op types once each, so lazily prepared
	// state (plans, pools, heap size) exists before timing.
	ctx := context.Background()
	var warmFailed int64
	for op := 0; op < min(sys.opTypes(), 5); op++ {
		if err := sys.do(ctx, op, lt); err != nil {
			warmFailed++
			fmt.Fprintf(os.Stderr, "perfbench: warm-up %s: %v\n", sys.opName(op), err)
		}
	}

	order := rand.New(rand.NewSource(cfg.seed)).Perm(sys.opTypes())
	rep := &report{
		Provenance: provenance{
			Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.duration.Seconds(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: buildinfo.Commit,
		},
		Shape: sys.shape(),
	}
	var win, plain window
	if !cfg.trace {
		win = measure(ctx, sys, w.clients, order, cfg.duration, minOps, lt)
		rep.Metrics = endToEnd(median(setupS), win)
	} else {
		half := cfg.duration / 2
		plain = measure(ctx, sys, w.clients, order, half, 10, lt)
		lt.on.Store(true)
		win = measure(ctx, sys, w.clients, order, half, 10, lt)
		lt.on.Store(false)
		layerS["bench.oracle_s"] = []float64{oracleS}
		rep.Metrics = perLayer(sys, win, plain, layerS, floor, lt, cfg.seed)
		if err := writeTrace(cfg, rep, sys, lt, floor); err != nil {
			return nil, err
		}
	}
	rep.Attempted = int64(len(plain.latMs) + len(win.latMs))
	rep.Failed = plain.failed + win.failed + warmFailed
	rep.Correct = rep.Failed == 0
	rep.beyondP90 = len(win.latMs) - rank(len(win.latMs), 0.9)
	return rep, nil
}

// measure drives closed-loop clients through the seeded op order for d
// (longer if fewer than least ops have completed, up to 3d) and returns
// every op's latency with the window's counter deltas.
func measure(ctx context.Context, sys system, clients int, order []int, d time.Duration, least int, lt *layers) window {
	var next, done atomic.Int64
	stopRSS, rss := make(chan struct{}), make(chan []float64)
	go func() { rss <- rssPeaks(stopRSS) }()
	before := sample(sys, lt)
	start := time.Now()
	soft, hard := start.Add(d), start.Add(3*d)
	lats := make([][]float64, clients)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(hard) || (now.After(soft) && done.Load() >= int64(least)) {
					return
				}
				i := next.Add(1) - 1
				op := order[i%int64(len(order))]
				t := time.Now()
				err := sys.do(ctx, op, lt)
				lats[c] = append(lats[c], ms(time.Since(t)))
				done.Add(1)
				if err != nil {
					if failed.Add(1) <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sys.opName(op), err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	win := window{wall: time.Since(start).Seconds(), failed: failed.Load()}
	close(stopRSS)
	win.rssMB = <-rss
	after := sample(sys, lt)
	win.deltas = map[string]float64{}
	for k, v := range after {
		win.deltas[k] = v - before[k]
	}
	for _, l := range lats {
		win.latMs = append(win.latMs, l...)
	}
	return win
}

// sample reads the process and program counters a window reports as
// deltas.
func sample(sys system, lt *layers) map[string]float64 {
	s := sys.counters()
	s["cluster.retries_per_op"] = float64(lt.retries.Load())
	s["cluster.timeouts_per_op"] = float64(lt.timeouts.Load())
	rm := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(rm)
	s["go.alloc_mb_per_op"] = float64(rm[0].Value.Uint64()) / (1 << 20)
	s["go.allocs_per_op"] = float64(rm[1].Value.Uint64())
	s["go.gc_cycles_per_op"] = float64(rm[2].Value.Uint64())
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s["proc.cpu_s_per_op"] = tv(ru.Utime) + tv(ru.Stime)
	}
	kc := graph.KernelCounts()
	s["graph.kernel.merge_per_op"] = float64(kc["merge"] + kc["merge_u32"])
	s["graph.kernel.gallop_per_op"] = float64(kc["gallop"] + kc["gallop_u32"])
	s["graph.kernel.kway_per_op"] = float64(kc["kway"] + kc["kway_u32"])
	return s
}

func endToEnd(setupS float64, w window) map[string]metric {
	return map[string]metric{
		"setup_s":     {setupS, "s"},
		"op_p50_ms":   {quantile(w.latMs, 0.5), "ms"},
		"op_p90_ms":   {quantile(w.latMs, 0.9), "ms"},
		"ops_per_s":   {w.opsPerS(), "1/s"},
		"rss_peak_mb": {median(w.rssMB), "MB"},
	}
}

// rank is the 1-based nearest-rank index of quantile q among n values.
func rank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n))))
}

// quantile is the nearest-rank quantile of xs (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS restarts the kernel's count of the process's peak RSS
// (VmHWM, which getrusage reports as maxrss) at its current RSS.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// rssPeaks records the peak RSS of each second until stop closes,
// restarting the count after each. A single peak over the whole window
// depends on where garbage collections happen to fall; the median of
// the per-second peaks does not.
func rssPeaks(stop <-chan struct{}) []float64 {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var peaks []float64
	// Where the reset fails (run reports it), every second's peak is
	// the process's lifetime peak.
	_ = resetPeakRSS()
	for {
		select {
		case <-tick.C:
			peaks = append(peaks, rssPeakMB())
			_ = resetPeakRSS()
		case <-stop:
			return append(peaks, rssPeakMB())
		}
	}
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// errMismatch marks an op whose result disagrees with its oracle.
var errMismatch = errors.New("result disagrees with the oracle")

func writeTrace(cfg config, rep *report, sys system, lt *layers, floor []time.Duration) error {
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lt.write(f, rep, sys, floor); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
