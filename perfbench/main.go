// Command perfbench is the repository benchmark. It starts an asymd
// coordinator and one worker peer in its own process, each a
// service.Manager behind Manager.Handler on a loopback listener, and
// drives one named workload from a single closed-loop client: one
// connection, and the next op starts once the previous op's result has
// been fetched and checked. It measures from outside, by timing calls
// into the program's public functions, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with the
// service's job tracing and the simulator's probe off. With -trace 1 the
// run measures a third of its time untraced, a third with job tracing on
// and a span around every call the benchmark makes, then replays each
// traced op in process, and reports the per-layer set. Those spans are
// written as a Chrome trace.
//
// Run it from the repository root with perfbench/run.sh, which builds it
// first:
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const (
	// minOps is the fewest ops a phase runs whatever its duration, so
	// the tail percentile has samples beyond it.
	minOps = 2 * (tailBeyond + 1)
	// maxPhase caps a phase however slow its ops, so a run (at most two
	// phases) ends within three minutes.
	maxPhase = 70 * time.Second
	// setupRepeats is how often a run sets up; setup_s is the median.
	setupRepeats = 9
	// speedupOps is how many leading ops sim_speedup_damc_rws averages.
	// A fixed count makes it repeat exactly for a seed, however many ops
	// a run completes.
	speedupOps = 16
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one run's settings.
type config struct {
	seed   uint64
	dur    time.Duration
	minOps int
	setups int
	out    string // directory of the traced run's Chrome trace
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	commit := fs.String("commit", "unknown", "commit the binary was built from")
	out := fs.String("out", ".bench_build", "directory the traced run writes its Chrome trace to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, dur: time.Duration(*seconds) * time.Second,
		minOps: minOps, setups: setupRepeats, out: *out}

	fmt.Fprintln(stdout, hostFacts(*commit))
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d: %s\n", wl.name, *seed, *seconds, *traced, wl.why)
	var rep *report
	var err error
	if *traced == 1 {
		rep, err = measureLayers(wl, cfg, stdout)
	} else {
		rep, err = measureEndToEnd(wl, cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newReport fills every metric of defs from vals (0 where a metric does
// not apply to the workload) and prints each by name with its unit.
func newReport(defs []metricDef, vals map[string]float64, attempted, failed int, correct bool, log io.Writer) (*report, error) {
	r := &report{Correct: correct && failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		if d.moves != "" {
			fmt.Fprintf(log, "metric %-28s %14.6g %-5s moves %s\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Fprintf(log, "metric %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	fmt.Fprintf(log, "error_ratio %.6g (%d of %d ops failed)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	return r, nil
}

// bench is one workload running against one started cluster.
type bench struct {
	wl  workload
	cfg config
	c   *cluster
	rec *recorder // nil when untraced
	log io.Writer
}

// startBench starts the nodes and primes the workload.
func startBench(wl workload, cfg config, traced bool, log io.Writer) (*bench, error) {
	c, err := startCluster(traced)
	if err != nil {
		return nil, err
	}
	b := &bench{wl: wl, cfg: cfg, c: c, log: log}
	if traced {
		b.rec = newRecorder()
	}
	if err := b.prime(); err != nil {
		return nil, errors.Join(fmt.Errorf("prime %s: %w", wl.name, err), c.close())
	}
	return b, nil
}

// prime does the workload's one-time set-up work.
func (b *bench) prime() error {
	if b.wl.xtr {
		for i := range xtrPolicies {
			if _, err := runXtrOp(nil, b.cfg.seed+1, i); err != nil {
				return err
			}
		}
		return nil
	}
	sub, err := newSubmission(b.wl.prime(b.cfg.seed))
	if err != nil {
		return err
	}
	_, err = runSimOp(b.c, nil, -1, sub)
	return err
}

func (b *bench) warn(msg string) { fmt.Fprintf(b.log, "warning: %s\n", msg) }

// phase is one closed-loop measurement.
type phase struct {
	lat               []float64 // ms of each op that passed its checks
	roots             []int     // their span ids when traced
	attempted, failed int
	wall              time.Duration
	cells             float64              // sim: cells of the ops that passed
	speedups          []float64            // sim: of the first speedupOps ops
	byPolicy          map[string][]float64 // xtr: ms per policy
	round             xtrRound             // xtr: the round in progress
	roundCells        []float64            // xtr: cells/s of each whole round
	roundTasks        []float64            // xtr: tasks/s of each whole round
	first             *simOp               // sim: op 0
	replays           []simOp              // sim, traced: ops to check in process
	before, after     snapshot             // sim: /metrics around the loop
	goBefore, goAfter goStats
}

// runPhase runs ops back to back for d (and at least minOps ops). With a
// recorder, s collects the per-layer samples of every traced op, and each
// simulated op is afterwards replayed in process and checked.
func (b *bench) runPhase(d time.Duration, s samples) (*phase, error) {
	p := &phase{byPolicy: map[string][]float64{}}
	var err error
	if !b.wl.xtr {
		if p.before, err = b.c.snapshot(); err != nil {
			return nil, err
		}
	}
	p.goBefore = readGoStats()
	t0 := time.Now()
	// xtr-real ends on a whole round, so every policy runs equally often.
	more := func(i int) bool {
		return time.Since(t0) < d || i < b.cfg.minOps || (b.wl.xtr && i%len(xtrPolicies) != 0)
	}
	for i := 0; more(i) && time.Since(t0) < maxPhase; i++ {
		p.attempted++
		if err := b.op(i, p, s); err != nil {
			p.failed++
			b.warn(fmt.Sprintf("op %d failed: %v", i, err))
		}
	}
	p.wall = time.Since(t0)
	p.goAfter = readGoStats()
	if !b.wl.xtr {
		if p.after, err = b.c.snapshot(); err != nil {
			return nil, err
		}
	}
	// Replays run after the loop, so that traced ops run back to back
	// like untraced ones and the two phases' latencies compare.
	for _, op := range p.replays {
		fp, err := replay(b.rec, op.index, op.spec, s, op.index == 0, b.warn)
		if err == nil && fp != op.fingerprint {
			err = errors.New("service fingerprint differs from the in-process run of the same spec")
		}
		if err != nil {
			p.failed++
			b.warn(fmt.Sprintf("op %d: %v", op.index, err))
		}
	}
	return p, nil
}

// op runs and checks op i, adding it to the phase.
func (b *bench) op(i int, p *phase, s samples) error {
	if b.wl.xtr {
		if i%len(xtrPolicies) == 0 {
			p.round = xtrRound{}
		}
		op, err := runXtrOp(b.rec, b.cfg.seed, i)
		if err != nil {
			return err
		}
		p.round.add(op)
		if p.round.ops == len(xtrPolicies) {
			sec := p.round.ms / 1000
			p.roundCells = append(p.roundCells, float64(p.round.ops)/sec)
			p.roundTasks = append(p.roundTasks, float64(p.round.tasks)/sec)
		}
		if b.rec != nil {
			s.add("xtr.ns_per_task."+op.policy, op.ms*1e6/float64(op.tasks))
			s.add("xtr.steals."+op.policy, float64(op.steals))
			s.add("xtr.dispatches."+op.policy, float64(op.dispatches))
			s.add("xtr.busy_frac."+op.policy, op.busyFrac)
			p.roots = append(p.roots, op.root)
		}
		p.lat = append(p.lat, op.ms)
		p.byPolicy[op.policy] = append(p.byPolicy[op.policy], op.ms)
		return nil
	}
	sub, err := newSubmission(b.wl.grid(b.cfg.seed, i))
	if err != nil {
		return err
	}
	op, err := runSimOp(b.c, b.rec, i, sub)
	if err != nil {
		return err
	}
	if b.rec != nil {
		if err := traceOp(b.c, b.rec, op, s); err != nil {
			return err
		}
		p.roots = append(p.roots, op.root)
		p.replays = append(p.replays, op)
	}
	if i == 0 {
		p.first = &op
	}
	if i < speedupOps {
		p.speedups = append(p.speedups, op.speedup)
	}
	p.lat = append(p.lat, op.ms)
	p.cells += float64(op.cells)
	return nil
}

// counterFailures returns the shard retries and peer failures the
// coordinator counted during a phase; both must stay 0.
func (p *phase) counterFailures() (retries, peerFailures float64) {
	return p.after.coord["asymd_shard_failovers_total"] - p.before.coord["asymd_shard_failovers_total"],
		p.after.coord["asymd_peer_failures_total"] - p.before.coord["asymd_peer_failures_total"]
}

// measureEndToEnd is the -trace 0 run: set up setupRepeats times, then
// measure one untraced phase and check op 0 against an in-process run.
func measureEndToEnd(wl workload, cfg config, log io.Writer) (*report, error) {
	var setups []float64
	var b *bench
	for k := 0; k < cfg.setups; k++ {
		if b != nil {
			if err := b.c.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if b, err = startBench(wl, cfg, false, log); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p, err := b.runPhase(cfg.dur, nil)
	if cerr := b.c.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()

	vals := map[string]float64{
		"setup_s":     median(setups),
		"job_ms_p50":  median(p.lat),
		"cells_per_s": p.cells / p.wall.Seconds(),
		"peak_rss_mb": rss,
		"ok_ratio":    ratio(float64(p.attempted-p.failed), float64(p.attempted)),
	}
	tv, pct, beyond := tail(p.lat)
	vals["job_ms_tail"] = tv
	fmt.Fprintf(log, "job_ms_tail is p%.2f of %d op latencies, %d beyond it\n", pct, len(p.lat), beyond)
	correct := true
	if wl.xtr {
		// A rate over the whole phase is a mean, and a few runs of the
		// real runtime take several times the median; the median round
		// leaves those to job_ms_tail.
		vals["cells_per_s"] = median(p.roundCells)
		vals["tasks_per_s"] = median(p.roundTasks)
		for _, name := range xtrPolicies {
			fmt.Fprintf(log, "xtr %s: median op %.4f ms of %d\n", name, median(p.byPolicy[name]), len(p.byPolicy[name]))
		}
		vals["sim_speedup_damc_rws"] = ratio(median(p.byPolicy["RWS"]), median(p.byPolicy["DAM-C"]))
	} else {
		vals["tasks_per_s"] = (p.after.coord["asymd_sim_tasks_total"] - p.before.coord["asymd_sim_tasks_total"]) / p.wall.Seconds()
		vals["sim_speedup_damc_rws"] = mean(p.speedups)
		if retries, fails := p.counterFailures(); retries != 0 || fails != 0 {
			b.warn(fmt.Sprintf("%v shard retries and %v peer failures", retries, fails))
			correct = false
		}
		if p.first == nil {
			return nil, errors.New("op 0 failed; nothing to check against an in-process run")
		}
		ref, err := referenceFingerprint(p.first.spec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "op 0 fingerprint sha256 %x\n", sha256.Sum256([]byte(p.first.fingerprint)))
		if ref != p.first.fingerprint {
			b.warn("op 0: service fingerprint differs from scenario.Run of the same spec")
			p.failed++
		}
	}
	return newReport(endToEnd, vals, p.attempted, p.failed, correct, log)
}

// measureLayers is the -trace 1 run: an untraced phase for a third of the
// time (go-layer and /metrics counters, and the untraced median), then a
// traced phase for another third that splits op latency by layer and
// afterwards checks every op against an in-process run.
func measureLayers(wl workload, cfg config, log io.Writer) (*report, error) {
	b, err := startBench(wl, cfg, false, log)
	if err != nil {
		return nil, err
	}
	pu, err := b.runPhase(cfg.dur/3, nil)
	if cerr := b.c.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	bt, err := startBench(wl, cfg, true, log)
	if err != nil {
		return nil, err
	}
	s := samples{}
	pt, err := bt.runPhase(cfg.dur/3, s)
	if cerr := bt.c.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(cfg.out, "perfbench-"+wl.name+"-trace.json")
	if err := bt.rec.writeChrome(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "chrome trace of %d spans written to %s\n", len(bt.rec.spans), tracePath)

	vals := map[string]float64{}
	for name, vs := range s {
		vals[name] = median(vs)
	}
	ops := float64(len(pu.lat))
	gc := pu.goAfter
	vals["go.alloc_mb_per_op"] = ratio(gc.allocBytes-pu.goBefore.allocBytes, ops) / (1 << 20)
	vals["go.gc_cycles_per_op"] = ratio(gc.gcCycles-pu.goBefore.gcCycles, ops)
	vals["go.gc_cpu_frac"] = ratio(gc.gcCPU-pu.goBefore.gcCPU, gc.totalCPU-pu.goBefore.totalCPU)
	vals["bench.trace_overhead_ratio"] = ratio(median(pt.lat), median(pu.lat))

	correct := true
	if !wl.xtr {
		d := func(node func(snapshot) promSums, name string) float64 {
			return node(pu.after)[name] - node(pu.before)[name]
		}
		coord := func(s snapshot) promSums { return s.coord }
		worker := func(s snapshot) promSums { return s.worker }
		hits, misses := d(coord, "asymd_cell_cache_hits_total"), d(coord, "asymd_cell_cache_misses_total")
		remote := d(worker, "asymd_cell_cache_hits_total") + d(worker, "asymd_cell_cache_misses_total")
		runSec := d(coord, "asymd_cell_run_seconds_sum") + d(worker, "asymd_cell_run_seconds_sum")
		runs := d(coord, "asymd_cell_run_seconds_count") + d(worker, "asymd_cell_run_seconds_count")
		vals["service.cell_hit_ratio"] = ratio(hits, hits+misses)
		vals["service.local_cells"] = ratio(d(coord, "asymd_cell_runs_total"), ops)
		vals["service.remote_cells"] = ratio(remote, ops)
		vals["service.shard_retries"], vals["service.peer_failures"] = pu.counterFailures()
		vals["pool.simulate_ms_per_cell"] = ratio(runSec*1000, runs)
		vals["pool.busy_frac"] = ratio(runSec, pu.wall.Seconds()*float64(b.c.coordW+b.c.workerW))
		vals["wire.bytes_per_cell"] = ratio(float64(pu.after.bytesBefore-pu.before.bytesAfter), remote)
		for _, ph := range []*phase{pu, pt} {
			if retries, fails := ph.counterFailures(); retries != 0 || fails != 0 {
				b.warn(fmt.Sprintf("%v shard retries and %v peer failures", retries, fails))
				correct = false
			}
		}
		if pt.first != nil {
			fmt.Fprintf(log, "op 0 fingerprint sha256 %x\n", sha256.Sum256([]byte(pt.first.fingerprint)))
		}
	}

	if len(pt.lat) > 0 {
		mi := medianIndex(pt.lat)
		root := pt.roots[mi]
		self := selfTimes(bt.rec.spans, root)
		var sum time.Duration
		for layer, dur := range self {
			vals["self."+layer+"_ms"] = ms(dur)
			sum += dur
		}
		vals["bench.traced_job_ms_p50"] = pt.lat[mi]
		fmt.Fprintf(log, "self times of the median traced op (span %d) add up to %.4f ms; its latency is %.4f ms\n",
			root, ms(sum), pt.lat[mi])
	}
	return newReport(perLayer, vals, pu.attempted+pt.attempted, pu.failed+pt.failed, correct, log)
}
