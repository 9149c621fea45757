package main

import (
	"math"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// explainSlack is how long before a window's end a cleared fault may
// still explain a problem that window reports: detection lags injection
// by up to a window plus quarantine, as in the Fig-6 experiment.
const explainSlack = 80 * sim.Second

// located reports whether problem p points at fault f's true location:
// the faulty RNIC or host, or, for a switch-link problem, a tied
// candidate on the faulty cable. A CPU-overload fault (the drill's
// starvation noise) only explains a high processing delay on its host.
func located(tp *topo.Topology, f *faultgen.ActiveFault, p analyzer.Problem) bool {
	if (f.Cause == faultgen.CPUOverload) != (p.Kind == analyzer.ProblemHighProcDelay) {
		return false
	}
	switch p.Kind {
	case analyzer.ProblemSwitchLink:
		cable := -1
		switch {
		case f.Dev != "":
			cable = tp.Links[tp.LinkBetween(f.Dev, tp.RNICs[f.Dev].ToR)].Cable
		case f.Link >= 0 && int(f.Link) < len(tp.Links):
			cable = tp.Links[f.Link].Cable
		}
		for _, l := range p.Links {
			if tp.Links[l].Cable == cable {
				return true
			}
		}
		return false
	case analyzer.ProblemHostDown:
		return f.Cause == faultgen.HostDown && f.Host == p.Host
	default:
		return (f.Dev != "" && f.Dev == p.Device) || (f.Host != "" && f.Host == p.Host)
	}
}

// explains reports whether fault f, active around a window ending at
// end, accounts for problem p reported in that window.
func explains(tp *topo.Topology, f *faultgen.ActiveFault, p analyzer.Problem, end sim.Time) bool {
	cleared := f.Cleared
	if cleared == 0 {
		cleared = math.MaxInt64
	}
	return f.Injected <= end && cleared > end-explainSlack && located(tp, f, p)
}

// quality is detection quality against ground truth.
type quality struct {
	faults, detected     int
	delays               []float64 // virtual seconds, per detected fault
	incidents, localized int
}

func (q quality) recall() float64 {
	if q.faults == 0 {
		return 0
	}
	return float64(q.detected) / float64(q.faults)
}

func (q quality) precision() float64 {
	if q.incidents == 0 {
		return 0
	}
	return float64(q.localized) / float64(q.incidents)
}

// score rates detection over the windows whose end lies in (from, to].
// scored are the faults recall and delay are computed over; every fault
// in truth may explain an incident. An incident counts when the window
// that opened it lies in range; it is localized when the problem that
// opened it is explained by a true fault.
func score(tp *topo.Topology, scored, truth []*faultgen.ActiveFault, reports []analyzer.WindowReport,
	incidents []alert.Incident, from, to sim.Time) quality {
	var q quality
	byIndex := map[int]analyzer.WindowReport{}
	var inRange []analyzer.WindowReport
	for _, r := range reports {
		if r.End > from && r.End <= to {
			byIndex[r.Index] = r
			inRange = append(inRange, r)
		}
	}
	for _, f := range scored {
		q.faults++
	search:
		for _, r := range inRange {
			if r.End < f.Injected {
				continue
			}
			for _, p := range r.Problems {
				if explains(tp, f, p, r.End) {
					q.detected++
					q.delays = append(q.delays, float64(r.End-f.Injected)/float64(sim.Second))
					break search
				}
			}
		}
	}
	for _, in := range incidents {
		r, ok := byIndex[in.FirstWindow]
		if !ok {
			continue
		}
		q.incidents++
	opened:
		for _, p := range r.Problems {
			if alert.KeyOf(p) != in.Key {
				continue
			}
			for _, f := range truth {
				if explains(tp, f, p, r.End) {
					q.localized++
					break opened
				}
			}
		}
	}
	return q
}

// metrics fills the detection metrics every workload reports.
func (q quality) metrics(m map[string]float64) {
	// The median: a few faults found only windows later swing the mean
	// from seed to seed.
	m["detect_delay_vs"] = median(q.delays)
	m["fault_recall"] = q.recall()
	m["incident_precision"] = q.precision()
}
