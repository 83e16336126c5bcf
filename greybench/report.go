package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/greylist"
)

// layerReport turns the traced rounds' ledger into the per-layer
// metrics and prints the reconciliation.
type layerReport struct {
	lg             *ledger
	rounds         []round
	untraced       float64   // cpu_us_per_session over the untraced rounds
	perRound       []float64 // the same, per untraced round
	sessions       int       // all measured rounds
	walRecords     uint64
	walCompactions uint64
	recoverS       float64
	recovered      int
}

var stageNames = [4]string{"whitelist", "spf", "dnswl", "rdns"}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (l layerReport) fill(m map[string]metric) {
	lg := l.lg
	var tSessions int
	var tCPU int64
	var rt runtimeSample
	var tMutexWait float64
	for _, r := range l.rounds {
		rt.allocBytes += r.rt.allocBytes
		rt.gcCPU += r.rt.gcCPU
		if r.traced {
			tSessions += r.sessions
			tCPU += r.cpuNs
			tMutexWait += r.rt.mutexWait
		}
	}
	S := float64(tSessions)
	all := float64(l.sessions)
	perSession := func(ns int64) float64 { return float64(ns) / 1e3 / S }
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	var stageNs int64
	for i, name := range stageNames {
		stageNs += lg.stageNs[i]
		put("bypass."+name+".us_per_eval", "us", ratio(lg.stageNs[i], lg.stageEvals[i])/1e3)
		put("bypass."+name+".decided_share", "ratio", ratio(lg.stageDecided[i], lg.stageEvals[i]))
	}
	put("dns.queries_per_session", "count", float64(lg.dnsQueries)/S)
	put("dns.us_per_query", "us", ratio(lg.dnsNs, lg.dnsQueries)/1e3)
	put("greylist.gc_us_per_session", "us", perSession(lg.gcNs))
	put("greylist.gc_removed_per_call", "count", ratio(lg.gcRemoved, lg.gcCalls))
	put("greylist.self_us_per_rcpt", "us", ratio(lg.checkNs-stageNs-lg.obsNs, lg.rcpts)/1e3)
	put("obs.us_per_verdict", "us", ratio(lg.obsNs, lg.obsCalls)/1e3)
	for r := greylist.ReasonFirstSeen; r <= greylist.ReasonEarnedWhitelist; r++ {
		put("greylist.reason."+r.String()+"_share", "ratio", ratio(lg.reasons[r], lg.rcpts))
	}
	put("smtpserver.self_us_per_session", "us", perSession(lg.sessNs-lg.hookNs-lg.ioNs))
	put("smtpserver.write_calls_per_session", "count", float64(lg.writes)/S)
	put("hook.self_us_per_rcpt", "us", ratio(lg.hookNs-lg.checkNs, lg.rcpts)/1e3)
	put("wal.records_per_session", "count", float64(l.walRecords)/all)
	put("wal.compactions", "count", float64(l.walCompactions))
	put("runtime.alloc_kb_per_session", "KB", rt.allocBytes/1024/all)
	put("runtime.gc_cpu_us_per_session", "us", rt.gcCPU*1e6/all)
	put("background.cpu_us_per_session", "us", perSession(tCPU-lg.fgCPU))
	put("client.us_per_session", "us", perSession(lg.ioNs+lg.harnessNs))
	put("setup.recover_s", "s", l.recoverS)
	put("wal.recovered_entries", "count", float64(l.recovered))

	// The ledger: every line is a per-session share of the traced
	// rounds' process CPU. Foreground lines are wall-clock self times;
	// background is process CPU minus the foreground goroutines' thread
	// CPU, so the residual is the foreground's wall time not spent on CPU.
	lines := []struct {
		name string
		ns   int64
	}{
		{"smtpserver (self)", lg.sessNs - lg.hookNs - lg.ioNs},
		{"hook (self)", lg.hookNs - lg.checkNs},
		{"greylist engine (self)", lg.checkNs - stageNs - lg.obsNs},
		{"bypass stages (self)", stageNs - lg.dnsNs},
		{"dns transport + server", lg.dnsNs},
		{"observatory observer", lg.obsNs},
		{"greylist GC sweeps", lg.gcNs},
		{"client + harness", lg.ioNs + lg.harnessNs},
		{"background (WAL, obs, Go GC)", tCPU - lg.fgCPU},
	}
	traced := float64(tCPU) / 1e3 / S
	untraced := l.untraced
	var sum float64
	fmt.Fprintf(os.Stderr, "ledger over %d traced sessions (us/session):\n", tSessions)
	for _, ln := range lines {
		v := perSession(ln.ns)
		sum += v
		fmt.Fprintf(os.Stderr, "  %-30s %9.2f\n", ln.name, v)
	}
	noise := iqr(l.perRound)
	fmt.Fprintf(os.Stderr, "  %-30s %9.2f\n  %-30s %9.2f\n  %-30s %9.2f (residual %+.2f; %d migrated intervals)\n",
		"sum", sum, "traced cpu_us_per_session", traced, "untraced cpu_us_per_session", untraced,
		sum-traced, lg.fgMigrated)
	mutexWait := tMutexWait * 1e6 / S
	fmt.Fprintf(os.Stderr, "  of the residual, blocked on mutexes %.2f us/session\n", mutexWait)
	fmt.Fprintf(os.Stderr, "  tracing overhead %+.2f us/session; untraced round-to-round IQR %.2f\n", traced-untraced, noise)
	put("runtime.mutex_wait_us_per_session", "us", mutexWait)
	put("ledger.cpu_us_per_session_traced", "us", traced)
	put("ledger.cpu_us_per_session_untraced", "us", untraced)
	put("ledger.tracing_overhead_us_per_session", "us", traced-untraced)
	put("ledger.residual_us_per_session", "us", sum-traced)
	put("ledger.noise_us_per_session", "us", noise)
}

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return q(0.75) - q(0.25)
}
