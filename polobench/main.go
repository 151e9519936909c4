// Command polobench is the policy oracle's end-to-end benchmark. It
// drives one of three seeded workloads against the oracle's public
// layers from a single process, checks every op's output, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	polobench -workload pair-cold|serve-warm|edit-stream -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// every other op with spans around each public call and reports the
// per-layer split instead. See README.md for the workloads, the metrics
// and what each layer row is predicted to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
// Wall-clock latency and throughput are printed on every run too, but
// they follow the host's steal, so they are not among them (README.md).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mb", "MB"},
}

// tailP is the fixed percentile the wall-clock tail reports: a 20 s run
// of every workload leaves at least 10 samples beyond it.
const tailP = 0.90

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
// Values are per op unless the name says ratio or rate; a layer a
// workload does not exercise reports 0.
var perLayer = []metric{
	{"lexer.ms", "ms"},
	{"lexer.mb_per_s", "MB/s"},
	{"parser.ms", "ms"},
	{"types.ms", "ms"},
	{"ir.ms", "ms"},
	{"ir.instrs", "count"},
	{"callgraph.ms", "ms"},
	{"callgraph.resolution_rate", "ratio"},
	{"oracle.hash_ms", "ms"},
	{"analysis.ms", "ms"},
	{"analysis.may_busy_ms", "ms"},
	{"analysis.must_busy_ms", "ms"},
	{"analysis.method_analyses", "count"},
	{"analysis.memo_hit_ratio", "ratio"},
	{"constprop.runs", "count"},
	{"constprop.hit_ratio", "ratio"},
	{"oracle.reanalyzed", "count"},
	{"oracle.reused_ratio", "ratio"},
	{"oracle.changed_methods", "count"},
	{"store.seed_ms", "ms"},
	{"policy.export_ms", "ms"},
	{"store.update_ms", "ms"},
	{"policy.import_ms", "ms"},
	{"diff.ms", "ms"},
	{"diff.encode_ms", "ms"},
	{"diff.groups", "count"},
	{"store.mem_hit_ratio", "ratio"},
	{"store.disk_hits", "count"},
	{"store.extractions", "count"},
	{"batch.envelope_ms", "ms"},
	{"batch.bytes", "B"},
	{"server.item_extract_ms", "ms"},
	{"server.item_diff_ms", "ms"},
	{"server.http_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_ms", "ms"},
	{"runtime.gcs", "count"},
	{"other_ms", "ms"},
	{"trace.op_ms", "ms"},
	{"trace.p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.cpu_ms_per_op", "ms"},
}

// config is one benchmark run. The fields after trace exist so tests can
// run a handful of small ops; the command line sets their defaults.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds the run's scratch state: store directories and the
	// span file. It is created if absent.
	dir string

	tiny   bool // quarter-size corpora
	setups int  // set-up repetitions; setup_s is their median
	warmup int  // warm-up ops per client per set-up, outside the timed phase
	maxOps int  // stop after this many timed ops (0: run for seconds)
	// tamper, when set, rewrites an op's output before its check.
	tamper func(out any)
}

// workload is one seeded traffic shape. A workload's ops run in a closed
// loop: each client issues its next op when the previous one returns.
type workload interface {
	// clients is the number of concurrent closed-loop clients.
	clients() int
	// prepare builds the benchmark's own inputs from the seed: corpora,
	// reference outputs. It is not part of setup_s.
	prepare() error
	// setup performs the program's set-up (store open, uploads, initial
	// extractions), replacing any previous set-up. It is part of setup_s.
	setup() error
	// stage prepares client c's op n outside every timed interval.
	stage(c, n int) error
	// op runs client c's op n; tr is nil for an untraced op.
	op(c, n int, tr *opTrace) (any, error)
	// check verifies an op's output outside every timed interval.
	check(c, n int, out any) error
	// begin marks the start of the timed phase; finish reports the
	// workload's own per-layer rows over the phase's ops and any
	// phase-level check failure.
	begin()
	finish(p *phase, rows map[string]float64) error
	close()
}

// phase is the record of one timed phase.
type phase struct {
	attempted int
	failed    int
	lat       []float64     // untraced op latencies, ms
	tracedLat []float64     // traced op times (op clock), ms
	wall      time.Duration // timed phase, less the clients' mean excluded time
	cpu       time.Duration // process CPU minus excluded intervals
	rt0, rt1  rtSample
	peakLive  float64
	steal     float64 // steal share of all CPU ticks, -1 when unknown
	traces    []*opTrace
	firstErrs []string
}

func main() {
	cfg := config{dir: filepath.Join(".bench_build", "polobench-run"), setups: 5, warmup: 3}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: pair-cold, serve-warm or edit-stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (default 1; held-out seed 7919)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced phase and reports the per-layer split")
	flag.Parse()
	if flag.NArg() != 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polobench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "pair-cold":
		return &pairCold{cfg: cfg}, nil
	case "serve-warm":
		return &serveWarm{cfg: cfg}, nil
	case "edit-stream":
		return &editStream{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want pair-cold, serve-warm or edit-stream)", cfg.workload)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run executes one benchmark run: prepare, the repeated set-up with its
// warm-up ops, then the timed phase.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(&cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	// Set-up repeats so setup_s is a median, not one sample. Each
	// repetition ends with the same warm-up ops, so the repetitions do
	// equal work; the timed phase continues the op sequence after them.
	// setup_s counts process CPU, which leaves out the time the host
	// steals, and leaves out the warm-up ops' staging and checks.
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		cpu0 := processCPU()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		var own time.Duration
		for c := 0; c < w.clients(); c++ {
			for n := 0; n < cfg.warmup; n++ {
				t0 := time.Now()
				if err := w.stage(c, n); err != nil {
					return nil, fmt.Errorf("warm-up stage: %w", err)
				}
				own += time.Since(t0)
				out, err := w.op(c, n, nil)
				t1 := time.Now()
				if err == nil {
					err = w.check(c, n, out)
				}
				own += time.Since(t1)
				if err != nil {
					return nil, fmt.Errorf("warm-up op: %w", err)
				}
			}
		}
		setups = append(setups, (processCPU() - cpu0 - own).Seconds())
	}

	runtime.GC()
	p := measure(&cfg, w, cfg.warmup)
	fmt.Printf("polobench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	ops := float64(p.attempted)
	rows := map[string]float64{}
	if n := float64(len(p.traces)); n > 0 {
		for _, t := range p.traces {
			t.addRows(rows)
			rows["trace.op_ms"] += t.opMS()
		}
		for k := range rows {
			rows[k] /= n
		}
		rows["runtime.alloc_mb"] = (p.rt1.allocBytes - p.rt0.allocBytes) / 1e6 / ops
		rows["runtime.gc_cpu_ms"] = (p.rt1.gcCPU - p.rt0.gcCPU) * 1e3 / ops
		rows["runtime.gcs"] = (p.rt1.gcs - p.rt0.gcs) / ops
		rows["trace.p50_ms"] = median(p.tracedLat)
		rows["trace.overhead_ms"] = median(p.tracedLat) - median(p.lat)
		rows["trace.cpu_ms_per_op"] = ms(p.cpu) / ops
	}
	phaseErr := w.finish(p, rows)
	if phaseErr != nil {
		p.failed++
		p.firstErrs = append(p.firstErrs, phaseErr.Error())
	}
	if cfg.trace {
		path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, p.traces); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	res := &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]value{}}
	if res.Attempted == 0 {
		return nil, errors.New("no op completed in the timed phase")
	}
	for _, e := range p.firstErrs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	fmt.Printf("meta gomaxprocs=%d nproc=%d go=%s store_fs=%s ops=%d failed=%d tail=p%g tail_beyond=%d steal_share=%.4f\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), fsName(cfg.dir),
		p.attempted, p.failed, tailP*100, beyond(len(p.lat), tailP), p.steal)
	fmt.Printf("wall p50_ms=%.3f tail_ms=%.3f ops_per_s=%.3f\n",
		median(p.lat), percentile(p.lat, tailP), ops/p.wall.Seconds())
	fmt.Printf("dist untraced_ms p10=%.2f p50=%.2f p90=%.2f p95=%.2f p99=%.2f max=%.2f n=%d\n",
		percentile(p.lat, 0.10), percentile(p.lat, 0.50), percentile(p.lat, 0.90),
		percentile(p.lat, 0.95), percentile(p.lat, 0.99), percentile(p.lat, 1), len(p.lat))
	if !cfg.trace {
		set := map[string]float64{
			"setup_s":       median(setups),
			"cpu_ms_per_op": ms(p.cpu) / ops,
			"peak_heap_mb":  p.peakLive / 1e6,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{set[m.name], m.unit}
		}
	} else {
		for _, m := range perLayer {
			res.Metrics[m.name] = value{rows[m.name], m.unit}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// measure runs the timed phase: every client loops until the deadline
// (or maxOps), and the process CPU spent staging and checking is left
// out of cpu. In a traced phase every odd op is traced, so the untraced
// even ops give the overhead baseline under the same conditions.
func measure(cfg *config, w workload, first int) *phase {
	p := &phase{steal: -1}
	var mu sync.Mutex
	var excluded time.Duration
	ticks0, steal0, okTicks := cpuTicks()
	p.rt0 = readRuntime()
	heap := watchHeap()
	w.begin()
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := first; ; n++ {
				mu.Lock()
				stop := (cfg.maxOps > 0 && p.attempted >= cfg.maxOps) || (cfg.maxOps == 0 && !time.Now().Before(deadline))
				if !stop {
					p.attempted++
				}
				id := p.attempted
				mu.Unlock()
				if stop {
					return
				}
				t0 := time.Now()
				if err := w.stage(c, n); err != nil {
					mu.Lock()
					excluded += time.Since(t0)
					p.failed++
					p.firstErrs = append(p.firstErrs, fmt.Sprintf("client %d op %d: stage: %v", c, n, err))
					mu.Unlock()
					continue
				}
				var tr *opTrace
				if cfg.trace && n%2 == 1 {
					tr = newOpTrace(id)
				}
				opStart := time.Now()
				out, err := w.op(c, n, tr)
				lat := ms(time.Since(opStart))
				t1 := time.Now()
				if err == nil {
					if cfg.tamper != nil {
						cfg.tamper(out)
					}
					err = w.check(c, n, out)
				}
				mu.Lock()
				excluded += t1.Sub(t0) - time.Duration(lat*float64(time.Millisecond)) + time.Since(t1)
				if tr != nil {
					// Probes and attribution run inside the op call but
					// off the op clock.
					excluded += time.Duration((lat - tr.opMS()) * float64(time.Millisecond))
					p.tracedLat = append(p.tracedLat, tr.opMS())
					p.traces = append(p.traces, tr)
				} else {
					p.lat = append(p.lat, lat)
				}
				if err != nil {
					p.failed++
					if len(p.firstErrs) < 5 {
						p.firstErrs = append(p.firstErrs, fmt.Sprintf("client %d op %d: %v", c, n, err))
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start) - excluded/time.Duration(w.clients())
	p.cpu = processCPU() - cpu0 - excluded
	p.peakLive = heap.close()
	p.rt1 = readRuntime()
	if ticks1, steal1, ok := cpuTicks(); ok && okTicks && ticks1 > ticks0 {
		p.steal = (steal1 - steal0) / (ticks1 - ticks0)
	}
	return p
}
