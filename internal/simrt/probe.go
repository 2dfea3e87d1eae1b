package simrt

// Probe is the runtime's scheduler-introspection hook. It observes the
// existing decision points of the execution protocol — steals, queue
// transitions, PTT updates — and never influences them: it draws no
// randomness, schedules no events, and reads virtual time only at
// boundaries the runtime already crossed, so a probed run is bit-identical
// to an unprobed one (the fingerprint gates in internal/scenario prove it
// per policy × workload kind). The per-core dispatch and steal windows are
// not counted here: Runtime.Sched derives them from the runtime's own
// always-on per-core counters.
//
// A nil probe is the default and costs one pointer check per hook site;
// the alloc gates in alloc_test.go hold the disabled hot path at zero
// allocations.

import (
	"math"

	"dynasym/internal/metrics"
	"dynasym/internal/trace"
)

// maxQueueSamples and maxPTTSamples cap the recorded sample series (the
// running aggregates keep accumulating past the cap, so summary telemetry
// stays exact; only the plotted series truncates, deterministically).
const (
	maxQueueSamples = 1 << 16
	maxPTTSamples   = 1 << 16
)

// QueueSample is one observed queue-state transition: the total ready
// tasks across all WSQs and committed entries across all AQs at a virtual
// time.
type QueueSample struct {
	At               float64
	Ready, Committed int32
}

// PTTSample is one PTT prediction-vs-actual observation: at a completion,
// the table's estimate for the place before the update, and the observed
// span that updated it.
type PTTSample struct {
	At                float64
	Place, Type       int32
	Predicted, Actual float64
}

// Probe records scheduler introspection for one runtime. Attach it via
// Config.Probe; New/Reset size it to the platform. Not safe for concurrent
// use — it observes a single runtime on the engine's goroutine.
type Probe struct {
	cores int

	// stealLow/stealHigh are cores×cores victim-major steal counts.
	stealLow  []int64
	stealHigh []int64

	// Queue tracking: running totals, maxima, depth-over-time integrals,
	// and the capped sample series.
	ready, committed       int
	maxReady, maxCommitted int
	lastAt                 float64
	readyInt, committedInt float64
	transitions            int64
	samples                []QueueSample
	samplesDropped         int64

	// PTT tracking: error sum over every observed prediction plus the
	// capped raw series.
	pttCount   int64
	pttErrSum  float64
	pttSamples []PTTSample
	pttDropped int64
}

// NewProbe returns an empty probe; attaching it to a runtime sizes it.
func NewProbe() *Probe { return &Probe{} }

// reset clears the probe for a run on n cores, reusing its storage.
func (p *Probe) reset(n int) {
	p.cores = n
	p.stealLow = resizeZeroI(p.stealLow, n*n)
	p.stealHigh = resizeZeroI(p.stealHigh, n*n)
	p.ready, p.committed = 0, 0
	p.maxReady, p.maxCommitted = 0, 0
	p.lastAt = 0
	p.readyInt, p.committedInt = 0, 0
	p.transitions = 0
	p.samples = p.samples[:0]
	p.samplesDropped = 0
	p.pttCount = 0
	p.pttErrSum = 0
	p.pttSamples = p.pttSamples[:0]
	p.pttDropped = 0
}

func resizeZeroI(sl []int64, n int) []int64 {
	if cap(sl) < n {
		return make([]int64, n)
	}
	sl = sl[:n]
	for i := range sl {
		sl[i] = 0
	}
	return sl
}

// stole records one successful steal in the victim→thief matrix cell for
// the task's priority class.
func (p *Probe) stole(victim, thief int, high bool) {
	i := victim*p.cores + thief
	if high {
		p.stealHigh[i]++
	} else {
		p.stealLow[i]++
	}
}

// queueDelta applies one queue-state transition at virtual time at:
// dReady ready tasks entered/left WSQs, dCommitted entries entered/left
// AQs. The depth integrals advance before the state changes.
func (p *Probe) queueDelta(at float64, dReady, dCommitted int) {
	if at > p.lastAt {
		dt := at - p.lastAt
		p.readyInt += float64(p.ready) * dt
		p.committedInt += float64(p.committed) * dt
		p.lastAt = at
	}
	p.ready += dReady
	p.committed += dCommitted
	if p.ready > p.maxReady {
		p.maxReady = p.ready
	}
	if p.committed > p.maxCommitted {
		p.maxCommitted = p.committed
	}
	p.transitions++
	if len(p.samples) < maxQueueSamples {
		p.samples = append(p.samples, QueueSample{At: at, Ready: int32(p.ready), Committed: int32(p.committed)})
	} else {
		p.samplesDropped++
	}
}

// pttObserve records one prediction-vs-actual pair (the table's estimate
// for the place before this completion's update folded in).
func (p *Probe) pttObserve(at float64, place, typ int32, predicted, actual float64) {
	if actual <= 0 || predicted <= 0 {
		return
	}
	p.pttCount++
	p.pttErrSum += math.Abs(predicted-actual) / actual
	if len(p.pttSamples) < maxPTTSamples {
		p.pttSamples = append(p.pttSamples, PTTSample{At: at, Place: place, Type: typ, Predicted: predicted, Actual: actual})
	} else {
		p.pttDropped++
	}
}

// Sched renders the probe's telemetry over the virtual-time span [0, span]
// — the runtime's makespan, or the common makespan of runtimes that shared
// an engine — or returns nil when the runtime runs without a probe. Busy is
// the collector's per-core kernel time, dispatch and steal windows are the
// always-on per-core counters times their costs, and idle is the residual.
func (rt *Runtime) Sched(span float64) *metrics.Sched {
	p := rt.cfg.Probe
	if p == nil {
		return nil
	}
	busy := rt.coll.CoreBusy()
	s := &metrics.Sched{
		Busy:         busy,
		Dispatch:     make([]float64, p.cores),
		Steal:        make([]float64, p.cores),
		Idle:         make([]float64, p.cores),
		Span:         span,
		QueueSamples: p.transitions,
		ReadySec:     p.readyInt,
		CommittedSec: p.committedInt,
		MaxReady:     p.maxReady,
		MaxCommitted: p.maxCommitted,
		PTTSamples:   p.pttCount,
		PTTErrSum:    p.pttErrSum,
	}
	for i, c := range rt.cores {
		s.Dispatch[i] = float64(c.dispatches) * dispatchCost
		s.Steal[i] = float64(c.steals) * stealCost
		s.Idle[i] = max(0, span-busy[i]-s.Dispatch[i]-s.Steal[i])
	}
	// Close the depth integrals at the span (the final stretch after
	// the last transition is all-idle queues, but committed may be 0 only
	// at the very end, so integrate whatever state was left).
	if span > p.lastAt {
		dt := span - p.lastAt
		s.ReadySec += float64(p.ready) * dt
		s.CommittedSec += float64(p.committed) * dt
	}
	for v := 0; v < p.cores; v++ {
		for t := 0; t < p.cores; t++ {
			lo, hi := p.stealLow[v*p.cores+t], p.stealHigh[v*p.cores+t]
			if lo != 0 || hi != 0 {
				s.StealMatrix = append(s.StealMatrix, metrics.StealEdge{Victim: v, Thief: t, Low: lo, High: hi})
			}
		}
	}
	// Tail error: the last quarter of the recorded series, the "has the
	// table converged" view the paper's Figure 5 narrative builds on.
	if n := len(p.pttSamples); n > 0 {
		for _, ps := range p.pttSamples[n-n/4:] {
			s.PTTTailSamples++
			s.PTTTailErrSum += math.Abs(ps.Predicted-ps.Actual) / ps.Actual
		}
	}
	return s
}

// EmitCounters converts the recorded series into Chrome counter lanes on
// the recorder under pid: "queue depth" (wsq/aq series), "ready tasks",
// and "ptt rel err".
func (p *Probe) EmitCounters(rec *trace.Recorder, pid int) {
	if rec == nil {
		return
	}
	for _, s := range p.samples {
		rec.AddCounter(trace.CounterPoint{Name: "queue depth", Pid: pid, At: s.At, Series: []trace.CounterValue{
			{Key: "wsq", Value: float64(s.Ready)},
			{Key: "aq", Value: float64(s.Committed)},
		}})
		rec.AddCounter(trace.CounterPoint{Name: "ready tasks", Pid: pid, At: s.At, Series: []trace.CounterValue{
			{Key: "ready", Value: float64(s.Ready)},
		}})
	}
	for _, ps := range p.pttSamples {
		rec.AddCounter(trace.CounterPoint{Name: "ptt rel err", Pid: pid, At: ps.At, Series: []trace.CounterValue{
			{Key: "err", Value: math.Abs(ps.Predicted-ps.Actual) / ps.Actual},
		}})
	}
}
