package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/api"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/tsdb"
	"rpingmesh/internal/wire"
)

const (
	// recordHealthy and recordCanary are the windows of upload stream the
	// set-up records: healthy windows are replayed in a loop while the
	// run measures; canary windows, which carry one injected fault, are
	// replayed once after it.
	recordHealthy = 3
	recordCanary  = canaryWindows
	// operatorRate is the open-loop operator's request rate (half wire
	// Pinglists calls, half console reads).
	operatorRate = 100.0
	// deliverTimeout bounds the wait for the pipeline to hand a replayed
	// window to the analyzer.
	deliverTimeout = 10 * time.Second
)

// recording is a seeded simulation's upload stream, split by the analysis
// window that consumed each batch, with what the simulation's own
// analyzer counted.
type recording struct {
	tp      *topo.Topology
	infos   []proto.RNICInfo
	start   sim.Time // end of the window before the first recorded one
	healthy [][]proto.UploadBatch
	canary  [][]proto.UploadBatch
	counted []int64  // analyzer probes per recorded window, healthy then canary
	found   []string // the simulation's problems per recorded window
	sent    []int64  // agent probes sent per recorded window
	fault   *faultgen.ActiveFault
	seqSpan uint64 // larger than every recorded per-host Seq
}

// problemKeys lists a window's problems by incident key, sorted.
func problemKeys(r analyzer.WindowReport) string {
	keys := make([]string, len(r.Problems))
	for i, p := range r.Problems {
		keys[i] = alert.KeyOf(p).String()
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

func records(batches []proto.UploadBatch) int64 {
	n := 0
	for _, b := range batches {
		n += len(b.Results)
	}
	return int64(n)
}

// record simulates the 64-RNIC fabric, taps every delivered upload batch
// from the end of the warm-up on, and injects the canary fault 5 s into
// the first canary window.
func record(seed int64) (*recording, error) {
	tp, err := topo.BuildClos(drillTopo)
	if err != nil {
		return nil, err
	}
	c, err := core.NewCluster(core.Config{Topology: tp, Seed: seed})
	if err != nil {
		return nil, err
	}
	rec := &recording{tp: tp}
	var cur []proto.UploadBatch
	var windows [][]proto.UploadBatch
	taping := false
	var lastSent int64
	agentSent := func() int64 {
		var n int64
		for _, h := range c.Hosts {
			n += h.Agent.Stats.ProbesSent
		}
		return n
	}
	c.TapUploads(func(b proto.UploadBatch) {
		if taping {
			cur = append(cur, b)
			if b.Seq >= rec.seqSpan {
				rec.seqSpan = b.Seq + 1
			}
		}
	})
	c.OnWindow(func(r analyzer.WindowReport) {
		if taping {
			windows = append(windows, cur)
			rec.counted = append(rec.counted, r.Cluster.Probes+r.Service.Probes)
			rec.found = append(rec.found, problemKeys(r))
			s := agentSent()
			rec.sent = append(rec.sent, s-lastSent)
			lastSent = s
		}
		cur = nil
	})
	c.StartAgents()
	c.Run(warmUp)
	rec.start = c.Eng.Now()
	taping = true
	lastSent = agentSent()
	c.Run(recordHealthy * window)
	c.Run(5 * sim.Second)
	in := faultgen.NewInjector(c, seed)
	if rec.fault, err = in.Inject(canaryFault(in)); err != nil {
		return nil, err
	}
	c.Run(recordCanary*window - 5*sim.Second)
	rec.healthy, rec.canary = windows[:recordHealthy], windows[recordHealthy:]
	for _, dev := range tp.AllRNICs() {
		info, ok := c.Controller.Lookup(tp.RNICs[dev].IP)
		if !ok {
			return nil, fmt.Errorf("record: %s never registered", dev)
		}
		rec.infos = append(rec.infos, info)
	}
	return rec, nil
}

// window returns recorded window k, counting healthy windows first.
func (rec *recording) window(k int) []proto.UploadBatch {
	if k < recordHealthy {
		return rec.healthy[k]
	}
	return rec.canary[k-recordHealthy]
}

// daemon is the live ingest path, assembled from the public constructors
// in cmd/rpmesh-controller's layout: wire.Server → pipeline (concurrent,
// Block) → analyzer + tsdb sketch tier, the alert engine fed from every
// window, and the console reading a tsdb.Follower. The daemon's private
// adapters are not reachable, so the analyzer subscribes to the record
// path directly.
type daemon struct {
	aeng     *sim.Engine
	an       *analyzer.Analyzer
	db       *tsdb.DB
	follower *tsdb.Follower
	pipe     *pipeline.Pipeline
	alerts   *alert.Engine
	srv      *wire.Server
	console  *api.Server
	up, ctl  *wire.Client // the uploader's and the operator's connections
	op       *operator
}

func startDaemon(rec *recording, seed int64) (*daemon, error) {
	ctrl := controller.New(sim.New(seed), rec.tp, controller.Config{})
	d := &daemon{aeng: sim.New(0)}
	d.aeng.RunUntil(rec.start)
	d.an = analyzer.New(d.aeng, rec.tp, ctrl, analyzer.Config{
		Window: window, Workers: runtime.GOMAXPROCS(0),
	})
	d.db = tsdb.Open(tsdb.Config{JournalCapacity: 1 << 16})
	d.an.SetMetricSink(d.db)
	d.follower = tsdb.NewFollower(d.db)
	d.pipe = pipeline.New(pipeline.Config{Partitions: 4, Capacity: 256, Policy: pipeline.Block}, d.an)
	d.pipe.SubscribeRecords(d.db)
	d.pipe.Start()
	d.alerts = alert.NewEngine(alert.Config{})
	var err error
	if d.srv, err = wire.Listen("127.0.0.1:0", ctrl, d.pipe); err != nil {
		d.pipe.Stop()
		return nil, err
	}
	d.console = api.New(api.Backend{
		Windows: d.an, TSDB: d.follower, Pipeline: d.pipe, Alerts: d.alerts,
		Admission: &api.Admission{Pipeline: d.pipe, Follower: d.follower},
	}, api.Config{})
	d.alerts.AddNotifier(d.console.AlertNotifier())
	if d.up, err = wire.Dial(d.srv.Addr()); err != nil {
		d.close()
		return nil, err
	}
	if d.ctl, err = wire.Dial(d.srv.Addr()); err != nil {
		d.close()
		return nil, err
	}
	// Agents register over the management connection before uploading.
	d.up.Register(rec.infos)
	if err := d.up.Err(); err != nil {
		d.close()
		return nil, fmt.Errorf("register: %w", err)
	}
	d.op = newOperator(d.ctl, d.console.Handler(), rec.tp)
	return d, nil
}

func (d *daemon) close() {
	for _, c := range []*wire.Client{d.up, d.ctl} {
		if c != nil {
			c.Close()
		}
	}
	d.srv.Close()
	d.pipe.Stop()
}

// replayer feeds a recording through a daemon, window by window, with
// closed-loop uploads on one connection.
type replayer struct {
	rec *recording
	d   *daemon
	n   int // windows replayed so far

	uploaded  int64 // records uploaded
	counted   int64 // probes the daemon's analyzer counted
	attempted int64
	failed    int64
	problems  []string
	reports   []analyzer.WindowReport
	tr        *tracer

	// Latencies of the current phase, ms.
	uploads, ticks, observes, catchups []float64
}

func (r *replayer) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// offset is the virtual shift of the n-th replayed window's pass over
// the healthy recording; canary windows follow the last pass.
func (r *replayer) offset(pass int) sim.Time {
	return sim.Time(pass) * recordHealthy * window
}

// replayWindow uploads recorded window k, waits until the analyzer has
// all of it, and closes the window: Tick, incident fold, follower
// catch-up and publish. It returns the close time.
func (r *replayer) replayWindow(k, pass int) time.Duration {
	batches := r.rec.window(k)
	end := r.rec.start + sim.Time(k+1)*window
	off := r.offset(pass)
	wid := r.tr.id()
	w0 := time.Now()
	for _, b := range batches {
		b.Sent += off
		b.Seq += uint64(pass) * r.rec.seqSpan
		t0 := time.Now()
		r.d.up.Upload(b)
		t1 := time.Now()
		r.attempted++
		if err := r.d.up.Err(); err != nil {
			r.fail("upload: %v", err)
		}
		r.uploads = append(r.uploads, ms(t1.Sub(t0)))
		r.tr.record(0, wid, "wire.upload", t0, t1)
	}
	n := records(batches)
	r.uploaded += n
	t0 := time.Now()
	for int64(r.d.an.PendingResults()) < n {
		if time.Since(t0) > deliverTimeout {
			r.fail("window %d: analyzer holds %d of %d records after %v", r.n, r.d.an.PendingResults(), n, deliverTimeout)
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	c0 := time.Now()
	r.tr.record(0, wid, "pipeline.deliver_wait", t0, c0)
	r.d.aeng.RunUntil(end + off)
	rep := r.d.an.Tick()
	c1 := time.Now()
	r.d.alerts.Observe(rep)
	c2 := time.Now()
	r.d.follower.CatchUp()
	c3 := time.Now()
	r.d.console.PublishWindow(rep)
	c4 := time.Now()
	r.ticks = append(r.ticks, ms(c1.Sub(c0)))
	r.observes = append(r.observes, ms(c2.Sub(c1)))
	r.catchups = append(r.catchups, ms(c3.Sub(c2)))
	r.tr.record(0, wid, "analyzer.tick", c0, c1)
	r.tr.record(0, wid, "alert.observe", c1, c2)
	r.tr.record(0, wid, "tsdb.catchup", c2, c3)
	r.tr.record(0, wid, "api.publish", c3, c4)
	r.tr.record(wid, 0, "window", w0, c4)
	// The daemon must see what the simulation's own analyzer saw in the
	// same window: every probe, and the same problems.
	got := rep.Cluster.Probes + rep.Service.Probes
	r.counted += got
	r.attempted++
	if got != r.rec.counted[k] {
		r.fail("window %d: analyzer counted %d probes, the simulation counted %d", r.n, got, r.rec.counted[k])
	}
	r.attempted++
	if keys := problemKeys(rep); keys != r.rec.found[k] {
		r.fail("window %d: daemon found [%s], the simulation found [%s]", r.n, keys, r.rec.found[k])
	}
	r.reports = append(r.reports, rep)
	r.n++
	return c4.Sub(c0)
}

// measure replays healthy windows for at least seconds with the operator
// running open loop beside the uploads.
func (r *replayer) measure(seconds float64, tr *tracer) *phase {
	p := &phase{}
	r.tr = tr
	r.uploads, r.ticks, r.observes, r.catchups = nil, nil, nil, nil
	r.d.op.reset(tr)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.d.op.openLoop(operatorRate, stop)
	}()
	start := time.Now()
	for len(p.steps) < 3 || time.Since(start).Seconds() < seconds {
		k, pass := r.n%recordHealthy, r.n/recordHealthy
		m0 := markMem()
		t0 := time.Now()
		closeTime := r.replayWindow(k, pass)
		t1 := time.Now()
		m1 := markMem()
		p.add(m0, m1, t1.Sub(t0), float64(records(r.rec.healthy[k])))
		p.closes = append(p.closes, ms(closeTime))
	}
	close(stop)
	<-done
	r.tr = nil
	return p
}

// canary replays the canary windows once, after the measured passes, and
// scores detection of the recorded fault on the daemon's path.
func (r *replayer) canary() quality {
	pass := (r.n + recordHealthy - 1) / recordHealthy
	off := r.offset(pass)
	af := *r.rec.fault
	af.Injected += off
	from := r.rec.start + recordHealthy*window + off
	for k := range r.rec.canary {
		r.replayWindow(recordHealthy+k, pass)
	}
	faults := []*faultgen.ActiveFault{&af}
	to := r.rec.start + sim.Time(recordHealthy+len(r.rec.canary))*window + off
	return score(r.rec.tp, faults, faults, r.reports,
		r.d.alerts.Incidents(alert.Filter{IncludeArchived: true}), from, to)
}

func (r *replayer) layers(p *phase, m map[string]float64) {
	p.perLayer(m)
	r.d.op.perLayer(m)
	m["wire.upload_p50_ms"] = median(r.uploads)
	m["wire.upload_p99_ms"] = quantile(r.uploads, 0.99)
	m["analyzer.tick_ms"] = median(r.ticks)
	m["alert.observe_ms"] = median(r.observes)
	m["tsdb.catchup_ms"] = median(r.catchups)
	m["analyzer.records_per_window"] = median(p.col(func(s step) float64 { return s.records }))
	var sent []float64
	for _, s := range r.rec.sent[:recordHealthy] {
		sent = append(sent, float64(s))
	}
	m["agent.probes_per_window"] = median(sent)
	as := r.d.alerts.Stats()
	m["alert.incidents_opened"] = float64(as.Opened)
	m["alert.flaps"] = float64(as.Reopened)
	pipelineLayers(r.d.pipe.Stats(), m)
	ts := r.d.db.Stats()
	m["tsdb.series"] = float64(ts.Series)
	m["tsdb.sketch_bytes"] = float64(ts.SketchBytes)
}

func runWireIngest(cfg config) (*outcome, error) {
	// Recording the upload stream generates the inputs; set-up is
	// starting the daemon and registering the fleet with it.
	rec, err := record(cfg.seed)
	if err != nil {
		return nil, err
	}
	d, setup, err := timeSetup(func() (*daemon, error) { return startDaemon(rec, cfg.seed) }, (*daemon).close)
	if err != nil {
		return nil, err
	}
	r := &replayer{rec: rec, d: d}
	defer r.d.close()
	// One replayed window, so the console has a window and series to
	// serve from the first request on.
	r.replayWindow(0, 0)

	p, lm, err := runPhases(cfg, r.measure, r.layers)
	if err != nil {
		return nil, err
	}
	oc := &outcome{e2e: map[string]float64{"setup_s": setup}, layer: lm}
	p.endToEnd(oc.e2e)
	r.d.op.endToEnd(oc.e2e)

	q := r.canary()
	q.metrics(oc.e2e)
	oc.check(q.detected == 1, "canary fault not detected over the wire path")
	oc.check(q.precision() == 1, "canary: %d of %d incidents at the true location", q.localized, q.incidents)

	// Conservation: every uploaded record reached the analyzer through a
	// Block pipeline that dropped nothing.
	var st pipeline.Stats
	t0 := time.Now()
	for st = r.d.pipe.Stats(); st.ResultsDelivered < uint64(r.uploaded) && time.Since(t0) < deliverTimeout; st = r.d.pipe.Stats() {
		time.Sleep(time.Millisecond)
	}
	oc.check(st.ResultsDelivered == uint64(r.uploaded), "pipeline delivered %d results, %d uploaded", st.ResultsDelivered, r.uploaded)
	oc.check(r.counted == r.uploaded, "analyzer counted %d probes, %d uploaded", r.counted, r.uploaded)
	oc.check(st.Dropped() == 0, "pipeline dropped %d batches under Block", st.Dropped())
	oc.check(st.AccountingError() == nil, "pipeline accounting: %v", st.AccountingError())

	oc.attempted += r.attempted + r.d.op.attempted
	oc.failed += r.failed + r.d.op.failed
	oc.problems = append(oc.problems, r.problems...)
	if lm != nil {
		lm["error_ratio"] = float64(oc.failed) / float64(oc.attempted)
	}
	return oc, nil
}
