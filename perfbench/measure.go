package main

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rpingmesh/internal/topo"
	"rpingmesh/internal/wire"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Set-up is timed over repeated builds of the system under test, at
// least minSetups of them and at least minSetupSeconds in all, so that
// setup_s, their median, rests on many samples however fast one build is.
const (
	minSetups       = 15
	minSetupSeconds = 0.25
)

// timeSetup builds with build until both minimums are met, releasing
// every build but the last, and returns the last with the median build
// time. Each build starts after a collection, so garbage from the one
// before it does not land on its clock.
func timeSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	for total := 0.0; len(times) < minSetups || total < minSetupSeconds; {
		if len(times) > 0 {
			release(last)
		}
		runtime.GC()
		t0 := time.Now()
		b, err := build()
		if err != nil {
			return b, 0, err
		}
		d := time.Since(t0).Seconds()
		times = append(times, d)
		total += d
		last = b
	}
	return last, median(times), nil
}

// memMark is a process-wide allocation snapshot; the difference of two
// marks is the work done between them.
type memMark struct {
	mallocs, bytes uint64
	numGC          uint32
	heapGoal       uint64        // the heap size that starts the next collection
	cpu            time.Duration // process user+system time
}

func markMem() memMark {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return memMark{mallocs: st.Mallocs, bytes: st.TotalAlloc, numGC: st.NumGC, heapGoal: st.NextGC, cpu: cpu}
}

// step is one measured unit of a phase: a 20-s virtual slice of a
// simulated fabric, or one replayed 20-s window of wire-ingest.
type step struct {
	wall    float64 // host seconds
	cpu     float64 // process CPU seconds, all threads
	allocs  float64
	bytes   float64
	records float64 // probe records delivered to the analyzer
}

// phase accumulates the steps of one measurement phase.
type phase struct {
	steps    []step
	gcs      uint32
	heapPeak uint64    // largest heap goal: the heap grows to it before each collection
	closes   []float64 // window close, ms
}

// add records the step between two marks taken around it.
func (p *phase) add(m0, m1 memMark, wall time.Duration, records float64) {
	p.steps = append(p.steps, step{
		wall:    wall.Seconds(),
		cpu:     (m1.cpu - m0.cpu).Seconds(),
		allocs:  float64(m1.mallocs - m0.mallocs),
		bytes:   float64(m1.bytes - m0.bytes),
		records: records,
	})
	p.gcs += m1.numGC - m0.numGC
	if m1.heapGoal > p.heapPeak {
		p.heapPeak = m1.heapGoal
	}
}

func (p *phase) col(f func(step) float64) []float64 {
	out := make([]float64, len(p.steps))
	for i, s := range p.steps {
		out[i] = f(s)
	}
	return out
}

// stepsPerVmin scales a per-step median to one virtual minute: a step
// covers 20 virtual seconds.
const stepsPerVmin = 3

// hostSPerVmin is the CPU time the process spends per virtual minute.
// CPU time, unlike wall time, does not count the time other tenants of a
// shared machine hold the processors.
func (p *phase) hostSPerVmin() float64 {
	return median(p.col(func(s step) float64 { return s.cpu })) * stepsPerVmin
}

// vmin is the virtual time the phase covered.
func (p *phase) vmin() float64 { return float64(len(p.steps)) / stepsPerVmin }

// endToEnd fills the metrics every workload reports from its phase.
// ingest_records_per_s is the median over steps of the records a step
// delivered per second of process CPU time, like host_s_per_vmin: wall
// time on a shared machine also counts what other tenants take.
func (p *phase) endToEnd(m map[string]float64) {
	m["host_s_per_vmin"] = p.hostSPerVmin()
	m["allocs_per_vmin"] = median(p.col(func(s step) float64 { return s.allocs })) * stepsPerVmin
	m["alloc_mb_per_vmin"] = median(p.col(func(s step) float64 { return s.bytes })) * stepsPerVmin / (1 << 20)
	m["heap_peak_mb"] = float64(p.heapPeak) / (1 << 20)
	m["ingest_records_per_s"] = median(p.col(func(s step) float64 { return s.records / s.cpu }))
	m["window_close_ms"] = median(p.closes)
}

// perLayer fills the per-layer metrics every workload reports from its
// phase.
func (p *phase) perLayer(m map[string]float64) {
	m["core.run_slice_ms"] = median(p.col(func(s step) float64 { return s.wall })) * 1000
	m["gc.cycles_per_vmin"] = float64(p.gcs) / p.vmin()
}

// consoleRead is one ops-console query the operator cycles through.
type consoleRead struct{ name, path string }

// operator is the ops load every workload carries: wire Pinglists calls
// for a rotating host over the management connection, alternating with
// console reads through the api handler. Latency is kept twice: from the
// instant each request was due, so a stalled request also delays the ones
// queued behind it, and from the instant it was sent. The operator shares
// the system's process and CPUs, and while uploads keep both busy its
// timer wakes late, a delay a remote operator would not see; the medians
// are therefore taken from the send and the tails from the due time.
type operator struct {
	ctl     *wire.Client
	console http.Handler
	hosts   []topo.HostID
	reads   []consoleRead
	tr      *tracer

	n                           int
	pinglists, consoles         []float64            // from the due time, ms
	pinglistsSent, consolesSent []float64            // from the send, ms
	perRead                     map[string][]float64 // from the send, ms
	late                        []float64
	attempted                   int64
	failed                      int64
}

func newOperator(ctl *wire.Client, console http.Handler, tp *topo.Topology) *operator {
	hosts := tp.AllHosts()
	return &operator{
		ctl: ctl, console: console, hosts: hosts,
		reads: []consoleRead{
			{"incidents", "/api/incidents"},
			{"windows_latest", "/api/windows/latest"},
			{"series_range", "/api/series/cluster.rtt.p99/range"},
			// A sketch-tier series: per-host RTT fed from the record stream.
			{"series_quantile", "/api/series/ingest.rtt." + string(hosts[0]) + "/quantile?q=0.99"},
		},
		perRead: make(map[string][]float64),
	}
}

// reset starts a new phase's samples.
func (o *operator) reset(tr *tracer) {
	o.tr = tr
	o.pinglists, o.consoles, o.late = nil, nil, nil
	o.pinglistsSent, o.consolesSent = nil, nil
	o.perRead = make(map[string][]float64)
}

// do issues the operator's next request, due at due.
func (o *operator) do(due time.Time) {
	i := o.n
	o.n++
	o.attempted++
	start := time.Now()
	o.late = append(o.late, ms(start.Sub(due)))
	if i%2 == 0 {
		pl := o.ctl.Pinglists(o.hosts[(i/2)%len(o.hosts)])
		end := time.Now()
		if len(pl) == 0 {
			o.failed++
		}
		o.pinglists = append(o.pinglists, ms(end.Sub(due)))
		o.pinglistsSent = append(o.pinglistsSent, ms(end.Sub(start)))
		o.tr.record(0, 0, "wire.pinglists", start, end)
		return
	}
	r := o.reads[(i/2)%len(o.reads)]
	rec := httptest.NewRecorder()
	o.console.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.path, nil))
	end := time.Now()
	if rec.Code != http.StatusOK {
		o.failed++
	}
	o.consoles = append(o.consoles, ms(end.Sub(due)))
	o.consolesSent = append(o.consolesSent, ms(end.Sub(start)))
	o.perRead[r.name] = append(o.perRead[r.name], ms(end.Sub(start)))
	o.tr.record(0, 0, "api."+r.name, start, end)
}

// burst issues n requests back to back (closed loop), each due when the
// previous one finished.
func (o *operator) burst(n int) {
	for k := 0; k < n; k++ {
		o.do(time.Now())
	}
}

// openLoop issues requests at a fixed rate until stop closes. It runs on
// its own goroutine; read the samples only after it returns.
func (o *operator) openLoop(rate float64, stop <-chan struct{}) {
	t0 := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		o.do(due)
	}
}

// endToEnd reports medians: the 99th percentiles of a run spread too
// much between runs to gate on, so they are per-layer diagnostics.
func (o *operator) endToEnd(m map[string]float64) {
	m["pinglists_p50_ms"] = median(o.pinglistsSent)
	m["console_p50_ms"] = median(o.consolesSent)
}

func (o *operator) perLayer(m map[string]float64) {
	m["wire.pinglists_p99_ms"] = quantile(o.pinglists, 0.99)
	m["api.console_p99_ms"] = quantile(o.consoles, 0.99)
	for _, r := range o.reads {
		m["api."+r.name+"_ms"] = median(o.perRead[r.name])
	}
	m["operator.late_p99_ms"] = quantile(o.late, 0.99)
}
