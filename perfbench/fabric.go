package main

import (
	"fmt"
	"path/filepath"
	"time"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/api"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/wire"
)

const (
	window = 20 * sim.Second // the analyzer's default window
	warmUp = 2 * window      // every agent has its pinglists and a full window behind it
)

// steadyTopo is the 256-RNIC CLOS of TestMediumScaleCluster.
var steadyTopo = topo.ClosConfig{
	Pods: 4, ToRsPerPod: 4, AggsPerPod: 4, Spines: 8, HostsPerToR: 4, RNICsPerHost: 4,
}

// drillTopo is the 64-RNIC CLOS of fault-drill and wire-ingest.
var drillTopo = topo.ClosConfig{
	Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4, HostsPerToR: 4, RNICsPerHost: 4,
}

// fabric is a simulated deployment with its ops console and a management
// connection to its controller, advanced in 20-s slices.
type fabric struct {
	c       *core.Cluster
	srv     *wire.Server
	ctl     *wire.Client
	console *api.Server
	op      *operator

	// Window-close timing: a marker event scheduled at the window instant
	// before the cluster's own window event starts the clock; the
	// OnWindow hook, which runs after the drain, Tick and incident fold,
	// stops it.
	closeStart time.Time
	cur        *phase
	tr         *tracer
	sliceSpan  uint64

	reports []analyzer.WindowReport
}

func newFabric(cfg topo.ClosConfig, seed int64) (*fabric, error) {
	tp, err := topo.BuildClos(cfg)
	if err != nil {
		return nil, err
	}
	c, err := core.NewCluster(core.Config{Topology: tp, Seed: seed})
	if err != nil {
		return nil, err
	}
	f := &fabric{c: c}
	c.OnWindow(f.onWindow)
	c.StartAgents()
	if f.srv, err = wire.Listen("127.0.0.1:0", c.Controller, nil); err != nil {
		return nil, err
	}
	if f.ctl, err = wire.Dial(f.srv.Addr()); err != nil {
		f.srv.Close()
		return nil, err
	}
	f.console = api.New(api.Backend{
		Windows: c.Analyzer, TSDB: c.TSDB, Pipeline: c.Ingest, Alerts: c.Alerts,
	}, api.Config{})
	f.op = newOperator(f.ctl, f.console.Handler(), tp)
	return f, nil
}

func (f *fabric) close() {
	f.ctl.Close()
	f.srv.Close()
}

func (f *fabric) onWindow(rep analyzer.WindowReport) {
	if !f.closeStart.IsZero() && f.cur != nil {
		end := time.Now()
		f.cur.closes = append(f.cur.closes, ms(end.Sub(f.closeStart)))
		f.tr.record(0, f.sliceSpan, "core.window_close", f.closeStart, end)
	}
	f.closeStart = time.Time{}
	f.reports = append(f.reports, rep)
	// Scheduled from inside the window event, before its ticker re-arms,
	// so the marker precedes the next window event at the same instant.
	// Reading the wall clock changes nothing in the simulation.
	f.c.Eng.At(f.c.Eng.Now()+f.c.Analyzer.Window(), func() { f.closeStart = time.Now() })
}

// buildFabric times the fabric's set-up (see timeSetup), keeps the last
// build and warms it up. A build ends when the system is ready to run:
// warming up is simulation, which the run measures.
func buildFabric(cfg topo.ClosConfig, seed int64, prepare func(*fabric) error) (*fabric, float64, error) {
	f, setup, err := timeSetup(func() (*fabric, error) {
		f, err := newFabric(cfg, seed)
		if err != nil || prepare == nil {
			return f, err
		}
		if err := prepare(f); err != nil {
			f.close()
			return nil, err
		}
		return f, nil
	}, (*fabric).close)
	if err != nil {
		return nil, 0, err
	}
	f.c.Run(warmUp)
	return f, setup, nil
}

// measure advances the fabric slice by slice for at least seconds of host
// time and at least until virtual time until, running opsPerSlice
// operator requests between slices.
func (f *fabric) measure(seconds float64, until sim.Time, opsPerSlice int, tr *tracer) *phase {
	p := &phase{}
	f.cur, f.tr = p, tr
	f.op.reset(tr)
	start := time.Now()
	for len(p.steps) < 3 || time.Since(start).Seconds() < seconds || f.c.Eng.Now() < until {
		before := f.c.Ingest.Stats().ResultsDelivered
		f.sliceSpan = tr.id()
		m0 := markMem()
		t0 := time.Now()
		f.c.Run(window)
		t1 := time.Now()
		m1 := markMem()
		tr.record(f.sliceSpan, 0, "core.run_slice", t0, t1)
		p.add(m0, m1, t1.Sub(t0), float64(f.c.Ingest.Stats().ResultsDelivered-before))
		f.op.burst(opsPerSlice)
	}
	f.cur, f.tr = nil, nil
	return p
}

// layers fills the per-layer metrics a simulated fabric exposes
// from outside: its analyzer windows, incident engine, ingest pipeline
// and store.
func (f *fabric) layers(p *phase, m map[string]float64) {
	p.perLayer(m)
	f.op.perLayer(m)
	var records []float64
	for _, r := range f.reports[len(f.reports)-len(p.steps):] {
		records = append(records, float64(r.Cluster.Probes+r.Service.Probes))
	}
	m["analyzer.records_per_window"] = median(records)
	m["analyzer.tick_ms"] = median(p.closes)
	var sent int64
	for _, h := range f.c.Hosts {
		sent += h.Agent.Stats.ProbesSent
	}
	m["agent.probes_per_window"] = float64(sent) / (float64(f.c.Eng.Now()) / float64(window))
	as := f.c.Alerts.Stats()
	m["alert.incidents_opened"] = float64(as.Opened)
	m["alert.flaps"] = float64(as.Reopened)
	m["alert.observe_ms"] = 0 // folded inside the simulation's window event
	m["tsdb.catchup_ms"] = 0  // the simulation reads its store directly
	pipelineLayers(f.c.Ingest.Stats(), m)
	ts := f.c.TSDB.Stats()
	m["tsdb.series"] = float64(ts.Series)
	m["tsdb.sketch_bytes"] = float64(ts.SketchBytes)
	m["wire.upload_p50_ms"] = 0 // agents upload in process
	m["wire.upload_p99_ms"] = 0
}

// runPhases runs the untraced measurement and, when traced, a second
// traced phase of the same length; measureFn measures one phase.
func runPhases(cfg config, measureFn func(seconds float64, tr *tracer) *phase,
	layers func(*phase, map[string]float64)) (untraced *phase, lm map[string]float64, err error) {
	if !cfg.traced {
		return measureFn(cfg.seconds, nil), nil, nil
	}
	untraced = measureFn(cfg.seconds/2, nil)
	tr := newTracer(cfg.runID)
	prof, err := startProfiles()
	if err != nil {
		return nil, nil, err
	}
	traced := measureFn(cfg.seconds/2, tr)
	lm = map[string]float64{}
	if err := prof.stop(cfg.outDir, cfg.runID, lm); err != nil {
		return nil, nil, err
	}
	if err := tr.write(filepath.Join(cfg.outDir, "spans-"+cfg.runID+".jsonl")); err != nil {
		return nil, nil, err
	}
	layers(traced, lm)
	lm["tracing_overhead_pct"] = 100 * (traced.hostSPerVmin()/untraced.hostSPerVmin() - 1)
	return untraced, lm, nil
}

func pipelineLayers(st pipeline.Stats, m map[string]float64) {
	m["pipeline.lag_p50_ms"] = st.Lag.P50 / 1e6
	m["pipeline.block_waits"] = float64(st.BlockWaits)
	m["pipeline.queue_high_water"] = float64(st.QueueHighWater)
	m["pipeline.coalesce_ratio"] = 0
	if st.Delivered > 0 {
		m["pipeline.coalesce_ratio"] = float64(st.Dequeued) / float64(st.Delivered)
	}
	m["pipeline.dropped"] = float64(st.Dropped())
}

// steadyFloor is the coverage floor of steady-fabric: 256 RNICs probing
// their ToR mesh at 10 pps alone send about 51k probes per window.
const steadyFloor = 40000

func runSteadyFabric(cfg config) (*outcome, error) {
	f, setup, err := buildFabric(steadyTopo, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	defer f.close()
	const opsPerSlice = 100
	first := len(f.reports)
	p, lm, err := runPhases(cfg, func(s float64, tr *tracer) *phase {
		return f.measure(s, 0, opsPerSlice, tr)
	}, f.layers)
	if err != nil {
		return nil, err
	}
	oc := &outcome{e2e: map[string]float64{"setup_s": setup}, layer: lm}
	for _, r := range f.reports[first:] {
		oc.check(len(r.Problems) == 0, "window %d: %d problems on a healthy fabric", r.Index, len(r.Problems))
		oc.check(r.Cluster.RNICDropRate == 0 && r.Cluster.SwitchDropRate == 0,
			"window %d: drop rates rnic=%g switch=%g on a healthy fabric", r.Index, r.Cluster.RNICDropRate, r.Cluster.SwitchDropRate)
		oc.check(r.Cluster.Probes >= steadyFloor, "window %d: %d probes, below the coverage floor %d", r.Index, r.Cluster.Probes, steadyFloor)
	}
	p.endToEnd(oc.e2e)
	f.op.endToEnd(oc.e2e)
	oc.attempted += f.op.attempted
	oc.failed += f.op.failed

	q := f.canary(cfg.seed)
	q.metrics(oc.e2e)
	oc.check(q.detected == 1, "canary fault not detected")
	oc.check(q.precision() == 1, "canary: %d of %d incidents at the true location", q.localized, q.incidents)
	if lm != nil {
		lm["error_ratio"] = float64(oc.failed) / float64(oc.attempted)
	}
	return oc, nil
}

// canaryWindows bounds how long a canary fault has to be detected.
const canaryWindows = 4

// canaryFault is the fault steady-fabric and wire-ingest inject after
// their measurement to prove the detection path end to end: a seeded
// RNIC goes down. The fault drill covers the harder causes.
func canaryFault(in *faultgen.Injector) faultgen.Fault {
	return faultgen.Fault{Cause: faultgen.RNICDown, Dev: in.RandomRNIC()}
}

// canary cuts one seeded fabric link 5 s into the next window and runs
// until the analyzer reports it or canaryWindows windows pass. It scores
// detection of that one fault.
func (f *fabric) canary(seed int64) quality {
	f.c.Run(5 * sim.Second)
	in := faultgen.NewInjector(f.c, seed)
	af, err := in.Inject(canaryFault(in))
	if err != nil {
		return quality{faults: 1}
	}
	from := f.c.Eng.Now()
	f.c.Run(window - 5*sim.Second)
	for i := 1; i < canaryWindows && !f.canaryFound(af); i++ {
		f.c.Run(window)
	}
	faults := []*faultgen.ActiveFault{af}
	return score(f.c.Topo, faults, faults, f.reports,
		f.c.Alerts.Incidents(alert.Filter{IncludeArchived: true}), from, f.c.Eng.Now())
}

func (f *fabric) canaryFound(af *faultgen.ActiveFault) bool {
	r := f.reports[len(f.reports)-1]
	for _, p := range r.Problems {
		if explains(f.c.Topo, af, p, r.End) {
			return true
		}
	}
	return false
}

// Fault drill: a compressed Fig-6 fault mix (ten times the experiment's
// per-cause rates, so a run scores about 200 faults) plus CPU-starvation
// noise that must not surface as RNIC problems.
var drillRates = map[faultgen.Cause]float64{
	faultgen.FlappingPort:       80,
	faultgen.PacketCorruption:   80,
	faultgen.RNICDown:           50,
	faultgen.PFCDeadlock:        40,
	faultgen.MissingRouteConfig: 30,
	faultgen.HostDown:           20,
}

const (
	// drillScored is the span of injections that detection quality is
	// scored over; drillGrace is how long after it detections still count.
	// Both are virtual time, so the quality metrics do not depend on how
	// fast the host runs.
	drillScored = 40 * sim.Minute
	drillGrace  = 2 * sim.Minute
	// drillHorizon is the schedule length: enough faults for any run.
	drillHorizon = 6 * sim.Hour
	// noiseLength is how long one starvation event lasts.
	noiseLength = 45 * sim.Second
	// Floors below which a drill's detection quality counts as wrong.
	drillRecallFloor    = 0.6
	drillPrecisionFloor = 0.7
)

func runFaultDrill(cfg config) (*outcome, error) {
	var in *faultgen.Injector
	var noise []*faultgen.ActiveFault
	f, setup, err := buildFabric(drillTopo, cfg.seed, func(f *fabric) error {
		in = faultgen.NewInjector(f.c, cfg.seed)
		start := warmUp
		sched := in.GenerateSchedule(faultgen.ScheduleConfig{
			Duration: drillHorizon, EventsPerHour: drillRates, MeanFaultDuration: 70 * sim.Second,
		})
		for i := range sched {
			sched[i].At += start
		}
		in.Play(sched)
		// Starved agents are ground truth for high processing delay only.
		noise = nil
		rng := f.c.Eng.SubRand("perfbench-noise")
		hosts := f.c.Topo.AllHosts()
		for t := start + sim.Minute; t < start+drillHorizon; t += sim.Time(float64(90*sim.Second) * (0.5 + rng.Float64())) {
			h := hosts[rng.Intn(len(hosts))]
			a := f.c.Agent(h)
			f.c.Eng.At(t, func() { a.SetStarved(true) })
			f.c.Eng.At(t+noiseLength, func() { a.SetStarved(false) })
			noise = append(noise, &faultgen.ActiveFault{
				Fault: faultgen.Fault{Cause: faultgen.CPUOverload, Host: h}, Injected: t, Cleared: t + noiseLength,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	const opsPerSlice = 24
	start := f.c.Eng.Now()
	end := start + drillScored + drillGrace
	p, lm, err := runPhases(cfg, func(s float64, tr *tracer) *phase {
		return f.measure(s, end, opsPerSlice, tr)
	}, f.layers)
	if err != nil {
		return nil, err
	}
	oc := &outcome{e2e: map[string]float64{"setup_s": setup}, layer: lm}
	p.endToEnd(oc.e2e)
	f.op.endToEnd(oc.e2e)
	oc.attempted += f.op.attempted
	oc.failed += f.op.failed

	var scored []*faultgen.ActiveFault
	for _, af := range in.History() {
		if af.Injected >= start && af.Injected < start+drillScored {
			scored = append(scored, af)
		}
	}
	q := score(f.c.Topo, scored, append(in.History(), noise...), f.reports,
		f.c.Alerts.Incidents(alert.Filter{IncludeArchived: true}), start, end)
	q.metrics(oc.e2e)
	oc.check(q.faults > 0, "no faults injected")
	oc.check(q.recall() >= drillRecallFloor, "recall %.3f below floor %.2f (%d of %d faults)", q.recall(), drillRecallFloor, q.detected, q.faults)
	oc.check(q.precision() >= drillPrecisionFloor, "precision %.3f below floor %.2f (%d of %d incidents)", q.precision(), drillPrecisionFloor, q.localized, q.incidents)
	if lm != nil {
		lm["error_ratio"] = float64(oc.failed) / float64(oc.attempted)
	}
	fmt.Printf("fault-drill: %d faults scored, %d detected, %d incidents, %d localized\n", q.faults, q.detected, q.incidents, q.localized)
	return oc, nil
}
