package main

import (
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/dnsresolver"
	"repro/internal/greylist"
)

var monoStart = time.Now()

// nanotime is a monotonic clock reading in nanoseconds.
func nanotime() int64 { return int64(time.Since(monoStart)) }

// ledger accumulates the traced run's per-layer timers. The benchmark
// wraps the public call into each layer: the bypass stages, the DNS
// transport, the verdict observer, the engine check inside the SMTP
// hooks, GC, and the client connection's Read and Write. Timers run
// only while on is set (traced rounds); the fields are written by the
// foreground goroutines, which hand off to each other, and read by the
// main goroutine between rounds.
type ledger struct {
	on bool

	stageNs, stageEvals, stageDecided [4]int64
	dnsNs, dnsQueries                 int64
	obsNs, obsCalls                   int64
	hookNs, checkNs, rcpts            int64
	reasons                           [16]int64
	gcNs, gcCalls, gcRemoved          int64
	ioNs, writes                      int64 // client Read/Write callbacks
	harnessNs                         int64 // building connections, advancing the clock
	sessNs                            int64 // session goroutine: first I/O to Close

	// Foreground intervals (sessions and the harness between them):
	// wall time, and thread CPU where the goroutine stayed on one thread.
	fgWall, fgCPU, fgMigrated int64
}

func (lg *ledger) active() bool { return lg != nil && lg.on }

// cpuMark is a thread CPU reading with the thread it was taken on.
type cpuMark struct {
	cpu int64
	tid int
}

func (lg *ledger) mark() cpuMark {
	if !lg.active() {
		return cpuMark{}
	}
	return threadCPU()
}

// foreground closes an interval opened at wall time start on the
// thread CPU reading m.
func (lg *ledger) foreground(start int64, m cpuMark) {
	wall := nanotime() - start
	end := threadCPU()
	lg.fgWall += wall
	if end.tid == m.tid {
		lg.fgCPU += end.cpu - m.cpu
	} else {
		lg.fgCPU += wall
		lg.fgMigrated++
	}
}

type timedStage struct {
	greylist.Stage
	lg *ledger
	i  int
}

func (lg *ledger) stage(i int, s greylist.Stage) greylist.Stage {
	return timedStage{Stage: s, lg: lg, i: i}
}

func (s timedStage) Eval(t greylist.Triplet) (greylist.StageOutcome, error) {
	if !s.lg.on {
		return s.Stage.Eval(t)
	}
	t0 := nanotime()
	out, err := s.Stage.Eval(t)
	s.lg.stageNs[s.i] += nanotime() - t0
	s.lg.stageEvals[s.i]++
	if err == nil && out.Action != greylist.StageSkip {
		s.lg.stageDecided[s.i]++
	}
	return out, err
}

func (lg *ledger) transport(tr dnsresolver.Transport) dnsresolver.Transport {
	return dnsresolver.TransportFunc(func(q *dnsmsg.Message) (*dnsmsg.Message, error) {
		if !lg.on {
			return tr.Exchange(q)
		}
		t0 := nanotime()
		r, err := tr.Exchange(q)
		lg.dnsNs += nanotime() - t0
		lg.dnsQueries++
		return r, err
	})
}

type timedObserver struct {
	greylist.Observer
	lg *ledger
}

func (lg *ledger) observer(o greylist.Observer) greylist.Observer {
	return timedObserver{Observer: o, lg: lg}
}

func (o timedObserver) ObserveVerdict(t greylist.Triplet, v greylist.Verdict, latencyNs int64) {
	if !o.lg.on {
		o.Observer.ObserveVerdict(t, v, latencyNs)
		return
	}
	t0 := nanotime()
	o.Observer.ObserveVerdict(t, v, latencyNs)
	o.lg.obsNs += nanotime() - t0
	o.lg.obsCalls++
}

// hook accounts one RCPT hook call: entered at t0, the engine call ran
// from tc to t1, the hook returned at t2, deciding vs.
func (lg *ledger) hook(t0, tc, t1, t2 int64, vs ...greylist.Verdict) {
	lg.hookNs += t2 - t0
	lg.checkNs += t1 - tc
	lg.rcpts += int64(len(vs))
	for _, v := range vs {
		if int(v.Reason) < len(lg.reasons) {
			lg.reasons[v.Reason]++
		}
	}
}
