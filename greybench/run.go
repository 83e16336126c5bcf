package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"repro/internal/greylist"
	"repro/internal/simtime"
)

type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	dir      string
}

// spec sizes a workload's run. A round is a fixed number of
// connections; metrics are medians over rounds.
type spec struct {
	roundConns int
	warmup     int  // unmeasured rounds first (caches and heap settle); still in the digest
	fresh      bool // every round restarts the daemon from the pristine state
	setups     int  // timed back-to-back restarts for setup_s
}

var specs = map[string]spec{
	"mixed":    {roundConns: 2048, warmup: 2, setups: 7},
	"probe":    {roundConns: 1024, warmup: 1, setups: 21},
	"rotation": {roundConns: 4096, fresh: true, setups: 31},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type round struct {
	traced   bool
	sessions int
	cpuNs    int64
	heap     uint64
	rt       runtimeSample // allocation and Go GC CPU during the round
}

func statePath(dir string) string { return filepath.Join(dir, "greylist.db") }
func walPath(dir string) string   { return filepath.Join(dir, "greylist.wal") }

// copyState replaces dst's checkpoint and log with src's. The copies are
// fsynced, so a timed restart never pays to flush the benchmark's own
// writes.
func copyState(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, path := range []func(string) string{statePath, walPath} {
		b, err := os.ReadFile(path(src))
		if err != nil {
			return err
		}
		f, err := os.Create(path(dst))
		if err != nil {
			return err
		}
		_, err = f.Write(b)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func run(o opts) (*result, error) {
	sp, ok := specs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want mixed, probe or rotation)", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	work, err := os.MkdirTemp(o.dir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	pristine, live := filepath.Join(work, "pristine"), filepath.Join(work, "live")
	fmt.Fprintf(os.Stderr, "greybench: workload=%s seed=%d seconds=%d trace=%d go=%s GOMAXPROCS=%d cpus=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	w := newWorld()
	clock := simtime.NewSim(simtime.Epoch)
	t0 := time.Now()
	st, err := prepare(o.workload, w, o.seed, pristine, clock)
	if err != nil {
		return nil, fmt.Errorf("prep: %w", err)
	}
	st.gcEvery = gcEvery
	snap, snapAt := st.clone(), clock.Now()
	fmt.Fprintf(os.Stderr, "prep: %.2fs, virtual time %s\n", time.Since(t0).Seconds(), snapAt.Format(time.RFC3339))

	var lg *ledger
	if o.trace == 1 {
		lg = &ledger{}
	}
	drv := &harness{clock: clock, st: st, lg: lg}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	restart := func() (time.Duration, error) {
		if d != nil {
			err := d.stop()
			d = nil
			if err != nil {
				return 0, err
			}
		}
		if err := copyState(pristine, live); err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		nd, err := startDaemon(clock, w, live, newListener(drv), lg)
		if err != nil {
			return 0, err
		}
		d = nd
		return time.Since(t0), nil
	}
	drv.gc = func() int { return d.eng.GC() }

	// setup_s: back-to-back restarts from the pristine checkpoint+log.
	var setups, recovers []float64
	for i := 0; i < sp.setups; i++ {
		dt, err := restart()
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		setups = append(setups, dt.Seconds())
		recovers = append(recovers, d.recover.Seconds())
	}
	recovered := entries(d.eng)
	fmt.Fprintf(os.Stderr, "setup: median %.4fs over %d restarts (recovered %d entries, %d log records)\n",
		median(setups), len(setups), recovered, d.info.ReplayedRecords)

	var lifetimes []int // connections served per daemon lifetime, for the replay
	var lats []int64    // volley latencies of the untraced rounds
	runRound := func(traced bool) (round, error) {
		if lg != nil {
			lg.on = traced
		}
		c0 := drv.completed
		rt0 := readRuntime()
		cpu0 := processCPU()
		err := d.ln.round(sp.roundConns, d.served)
		cpu1 := processCPU()
		rt1 := readRuntime()
		if lg != nil {
			lg.on = false
		}
		if len(lifetimes) == 0 || sp.fresh {
			lifetimes = append(lifetimes, 0)
		}
		lifetimes[len(lifetimes)-1] += sp.roundConns
		r := round{traced: traced, sessions: drv.completed - c0, cpuNs: cpu1 - cpu0,
			rt: rt1.sub(rt0)}
		if !traced {
			lats = append(lats, drv.lat...)
		}
		drv.lat = drv.lat[:0]
		return r, err
	}

	for i := 0; i < sp.warmup; i++ {
		if _, err := runRound(false); err != nil {
			return nil, err
		}
	}
	heapStart, entriesStart := liveHeap(d), entries(d.eng)
	lats = lats[:0]

	var rounds []round
	var walBytes, walRecords, walCompactions uint64
	start := time.Now()
	minRounds := 3 + o.trace
	for len(rounds) < minRounds || time.Since(start) < time.Duration(o.seconds)*time.Second {
		if sp.fresh && len(rounds) > 0 {
			if _, err := restart(); err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
		}
		wc0 := d.wal.Counts()
		r, err := runRound(o.trace == 1 && len(rounds)%2 == 1)
		if err != nil {
			return nil, err
		}
		wc1 := d.wal.Counts()
		walBytes += wc1.Bytes - wc0.Bytes
		walRecords += wc1.Records - wc0.Records
		walCompactions += wc1.Compactions - wc0.Compactions
		if sp.fresh {
			r.heap = liveHeap(d)
		}
		rounds = append(rounds, r)
	}
	measured := time.Since(start)
	// Percentiles first: the latency samples are the benchmark's own
	// memory and must not count in the daemon's heap.
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50, p99 := float64(lats[len(lats)/2])/1e3, float64(lats[len(lats)*99/100])/1e3
	lats = nil
	heapEnd, entriesEnd := liveHeap(d), entries(d.eng)

	// The correctness gate.
	correct := drv.failed == 0
	for _, f := range drv.failures {
		fmt.Fprintln(os.Stderr, "failure:", f)
	}
	recOK, err := recoveryCheck(d, clock, live, filepath.Join(work, "check"))
	if err != nil {
		return nil, fmt.Errorf("recovery check: %w", err)
	}
	correct = correct && recOK
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	d = nil
	t0 = time.Now()
	want, err := replay(w, pristine, filepath.Join(work, "replay"), snap, snapAt, lifetimes)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	digestOK := want == drv.dg
	fmt.Fprintf(os.Stderr, "gate: digest %016x over %d replies, replay %016x over %d (%.2fs): match=%v\n",
		drv.dg.h, drv.dg.n, want.h, want.n, time.Since(t0).Seconds(), digestOK)
	correct = correct && digestOK
	if o.workload == "mixed" {
		steadyState(entriesStart, entriesEnd, heapStart, heapEnd)
	}

	var sessions, uSessions int
	var uCPU int64
	var perRound, heaps []float64
	for _, r := range rounds {
		sessions += r.sessions
		heaps = append(heaps, float64(r.heap))
		if !r.traced {
			uSessions += r.sessions
			uCPU += r.cpuNs
			perRound = append(perRound, float64(r.cpuNs)/float64(r.sessions)/1e3)
		}
	}
	cpuPerSession := float64(uCPU) / float64(uSessions) / 1e3
	heapMB := float64(heapEnd) / (1 << 20)
	if sp.fresh {
		heapMB = median(heaps) / (1 << 20)
	}
	fmt.Fprintf(os.Stderr, "measured: %d rounds, %d sessions in %.1fs; cpu_us_per_session %.2f, per round %v\n",
		len(rounds), sessions, measured.Seconds(), cpuPerSession, fmtList(perRound))

	res := &result{Correct: correct, Attempted: drv.attempted, Failed: drv.failed, Metrics: map[string]metric{}}
	if o.trace == 0 {
		res.Metrics["cpu_us_per_session"] = metric{cpuPerSession, "us"}
		res.Metrics["rcpt_p50_us"] = metric{p50, "us"}
		res.Metrics["rcpt_p99_us"] = metric{p99, "us"}
		res.Metrics["heap_live_mb"] = metric{heapMB, "MB"}
		res.Metrics["wal_kb_per_session"] = metric{float64(walBytes) / float64(sessions) / 1024, "KB"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return res, nil
	}
	l := layerReport{
		lg: lg, rounds: rounds, untraced: cpuPerSession, perRound: perRound, sessions: sessions,
		walRecords: walRecords, walCompactions: walCompactions,
		recoverS: median(recovers), recovered: recovered,
	}
	l.fill(res.Metrics)
	return res, nil
}

// prepare builds the workload's pristine state in dir — a checkpoint
// plus a log whose records recovery replays on top of it — and returns
// the stream positioned right after it, with clock at that instant.
func prepare(name string, w *world, seed int64, dir string, clock *simtime.Sim) (*stream, error) {
	eng, _ := newEngine(clock, w, nil)
	base := clock.Now()
	// Until the journaled tail, the prep sweeps hourly: entries outlive
	// their expiry by at most an hour, and the tail's 10-minute sweeps
	// bring the table back to the daemon's equilibrium.
	st := &stream{gcEvery: time.Hour, nextGC: base.Add(gcEvery)}
	var walAt, end time.Time
	switch name {
	case "mixed":
		// Ham alone first, for two 35-day lifetimes, so passed triplets
		// and client records reach their balance and the start-up burst
		// of first contacts has expired; then the full mix for the 48 h
		// retry window, so the pending table is at its equilibrium; the
		// last 6 h are journaled.
		m := newMixed(w, seed, base)
		m.hamOnlyUntil = base.Add(2*maxAge - retryWindow)
		st.wl = m
		walAt = base.Add(2 * maxAge)
		end = walAt.Add(6 * time.Hour)
	case "probe":
		// Every client completes one dance and earns the auto-whitelist;
		// a short stretch of probe traffic is journaled.
		p := newProbe(w, seed, base.Add(probeDancedAt+time.Minute))
		st.wl = p
		for _, plan := range p.dance(base) {
			directPlan(eng, clock, st, plan, nil)
		}
		walAt = base.Add(probeDancedAt + time.Minute)
		end = walAt.Add(100 * time.Millisecond)
	case "rotation":
		st.wl = newRotation(w, seed, base)
		walAt, end = base, base
	}
	runUntil(eng, clock, st, walAt.Add(-6*time.Hour))
	st.gcEvery = gcEvery
	runUntil(eng, clock, st, walAt)

	tmp := dir + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	wal, _, err := openUnsynced(tmp, eng)
	if err != nil {
		return nil, err
	}
	runUntil(eng, clock, st, end)
	if err := wal.Flush(); err != nil {
		return nil, err
	}
	if err := copyState(tmp, dir); err != nil {
		return nil, err
	}
	if err := wal.Close(); err != nil {
		return nil, err
	}
	return st, os.RemoveAll(tmp)
}

// runUntil drives the stream straight into the engine up to (not
// including) the first connection at or after until.
func runUntil(eng *greylist.Greylister, clock *simtime.Sim, st *stream, until time.Time) {
	for {
		plan := st.next()
		if !plan.at.Before(until) {
			st.unread(plan)
			return
		}
		directPlan(eng, clock, st, plan, nil)
	}
}

// directPlan decides one connection's sessions with CheckBatch at the
// same virtual instant the SMTP path would, on the same GC schedule.
func directPlan(eng *greylist.Greylister, clock *simtime.Sim, st *stream, plan *connPlan, dg *digest) {
	st.advance(clock, plan.at, func() { eng.GC() })
	var ts []greylist.Triplet
	var codes []int
	for _, s := range plan.sessions {
		ts = ts[:0]
		for _, r := range s.rcpts {
			ts = append(ts, greylist.Triplet{ClientIP: s.ip, Sender: s.sender, Recipient: r})
		}
		codes = codes[:0]
		for _, v := range eng.CheckBatch(ts, nil) {
			if v.Decision == greylist.Pass {
				codes = append(codes, 250)
			} else {
				codes = append(codes, 451)
			}
		}
		if dg != nil {
			dg.add(st.seq, codes)
		}
		st.seq++
		st.wl.observe(s, codes)
	}
}

// replay re-runs the measured stream from its snapshot straight into
// CheckBatch, each daemon lifetime on an engine recovered from the
// pristine checkpoint+log, and returns the digest the SMTP path must
// have produced. Reply codes do not depend on when expired entries are
// swept (an expired entry defers exactly like a missing one), so the
// replay sweeps every 6 virtual hours instead of every 10 minutes: it
// stays cheap, and a sweep that removed live state would show as a
// digest mismatch.
func replay(w *world, pristine, dir string, snap *stream, at time.Time, lifetimes []int) (digest, error) {
	var dg digest
	clock := simtime.NewSim(at)
	st := snap.clone()
	st.gcEvery = 6 * time.Hour
	for _, n := range lifetimes {
		if err := copyState(pristine, dir); err != nil {
			return dg, err
		}
		eng, _ := newEngine(clock, w, nil)
		wal, _, err := openUnsynced(dir, eng)
		if err != nil {
			return dg, err
		}
		if err := wal.Close(); err != nil { // detach: the replay itself is not journaled
			return dg, err
		}
		for i := 0; i < n; i++ {
			directPlan(eng, clock, st, st.next(), &dg)
		}
	}
	return dg, nil
}

// openUnsynced recovers dir's checkpoint and log into eng with the
// benchmark's own WAL settings: no fsync and no size-triggered
// compaction, for the prep, the replay and the recovery check.
func openUnsynced(dir string, eng *greylist.Greylister) (*greylist.WAL, greylist.RecoverInfo, error) {
	return greylist.OpenWAL(greylist.WALConfig{
		Path: walPath(dir), CheckpointPath: statePath(dir), Sync: greylist.SyncNone, CompactBytes: -1,
	}, eng)
}

type tableCounts struct{ pending, passed, clients, earned int }

func counts(g *greylist.Greylister) tableCounts {
	return tableCounts{g.PendingCount(), g.PassedCount(), g.ClientCount(), g.EarnedCount()}
}

func entries(g *greylist.Greylister) int {
	c := counts(g)
	return c.pending + c.passed + c.clients + c.earned
}

// recoveryCheck takes a crash image of the live daemon's checkpoint and
// log (after flushing the WAL to the OS), recovers it into a fresh
// engine, and compares the table counts with the live engine's.
func recoveryCheck(d *daemon, clock simtime.Clock, live, dir string) (bool, error) {
	want := counts(d.eng)
	if err := d.wal.Flush(); err != nil {
		return false, err
	}
	if err := copyState(live, dir); err != nil {
		return false, err
	}
	g := greylist.New(policy(), clock)
	wal, info, err := openUnsynced(dir, g)
	if err != nil {
		return false, err
	}
	got := counts(g)
	if err := wal.Close(); err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr, "gate: recovery replayed %d log records: live %+v recovered %+v\n",
		info.ReplayedRecords, want, got)
	return got == want, nil
}

// steadyState reports whether the mixed table neither grew nor shrank
// over the measured phase. Drifting entries mean the prep did not reach
// the equilibrium the workload claims. The heap also grows slowly with
// churn alone, because Go's maps reclaim deleted slots only by growing,
// and recovery starts every restart from compact maps. It is a check on
// the benchmark, not on the program's outputs, so it reports on
// standard error and leaves correct alone.
func steadyState(e0, e1 int, h0, h1 uint64) {
	const tolerance = 0.10
	de := float64(e1-e0) / float64(e0)
	dh := (float64(h1) - float64(h0)) / float64(h0)
	verdict := "steady"
	if math.Abs(de) > tolerance || math.Abs(dh) > tolerance {
		verdict = fmt.Sprintf("DRIFTING beyond %.0f%%", 100*tolerance)
	}
	fmt.Fprintf(os.Stderr, "steady state: entries %d -> %d (%+.1f%%), heap %.1f -> %.1f MB (%+.1f%%): %s\n",
		e0, e1, 100*de, float64(h0)/(1<<20), float64(h1)/(1<<20), 100*dh, verdict)
}

// liveHeap is the daemon's HeapAlloc after a forced collection. The WAL
// is quiesced first, so no compaction's snapshot counts as live: its
// consumer answers a flush only between compactions, and a flush can
// itself push the log past the compaction threshold, so it flushes twice.
func liveHeap(d *daemon) uint64 {
	for i := 0; i < 2; i++ {
		if err := d.wal.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "wal flush:", err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeSample holds cumulative runtime counters: bytes allocated, Go
// GC CPU seconds, and seconds goroutines spent blocked on a mutex.
type runtimeSample struct{ allocBytes, gcCPU, mutexWait float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sync/mutex/wait/total:seconds"},
	}
	rtmetrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.mutexWait - b.mutexWait}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func fmtList(xs []float64) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", x)
	}
	return out + "]"
}
