package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bypass"
	"repro/internal/dnsresolver"
	"repro/internal/greylist"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/smtpproto"
	"repro/internal/smtpserver"
	"repro/internal/spf"
	"repro/internal/trace"
)

// greylistd's flag defaults that this wiring mirrors. drift_test.go
// parses `greylistd -h` and fails when any of them changes.
const (
	threshold       = 300 * time.Second
	retryWindow     = 48 * time.Hour
	maxAge          = 35 * 24 * time.Hour
	autoWhitelist   = 5
	rcptBatch       = 64
	walSync         = "interval"
	walSyncInterval = time.Second
	walCompactEvery = 16 << 20
	obsWindow       = 10 * time.Second
	obsWindows      = 30
	traceRing       = 1024
	hostname        = "greylistd.local"
)

func policy() greylist.Policy {
	return greylist.Policy{
		Threshold:             threshold,
		RetryWindow:           retryWindow,
		PassLifetime:          maxAge,
		AutoWhitelistAfter:    autoWhitelist,
		AutoWhitelistLifetime: maxAge,
	}
}

// newEngine builds greylistd's engine (-shards 1) with the bypass chain
// whitelist → spf → dnswl → rdns resolving against the world's zones.
// Every cache and the resolver read clock. With a ledger, each stage
// and the DNS transport are wrapped in its timers.
func newEngine(clock simtime.Clock, w *world, lg *ledger) (*greylist.Greylister, []greylist.Stage) {
	g := greylist.New(policy(), clock)
	tr := dnsresolver.Direct(w.dns)
	if lg != nil {
		tr = lg.transport(tr)
	}
	res := dnsresolver.New(tr, clock)
	stages := []greylist.Stage{
		bypass.SPF(spf.NewCached(spf.New(res), spf.CacheConfig{Clock: clock})),
		bypass.DNSWL(res, dnswlOrigin, bypass.CacheConfig{Clock: clock}),
		bypass.RDNS(res, bypass.CacheConfig{Clock: clock}),
	}
	chain := append([]greylist.Stage{greylist.WhitelistStage(g.Whitelist())}, stages...)
	if lg != nil {
		for i, s := range chain {
			chain[i] = lg.stage(i, s)
		}
	}
	g.SetChain(greylist.NewChain(chain...))
	return g, stages
}

// daemon is one greylistd process image: engine, chain, WAL, trace
// ring, observatory with its registry, and the SMTP server serving the
// benchmark's in-memory listener.
type daemon struct {
	eng     *greylist.Greylister
	wal     *greylist.WAL
	obsv    *obs.Observatory
	srv     *smtpserver.Server
	ln      *listener
	served  chan error
	info    greylist.RecoverInfo
	recover time.Duration // OpenWAL alone
}

// startDaemon restarts greylistd from the checkpoint and log in dir:
// everything greylistd does between exec and accepting, in its order.
func startDaemon(clock *simtime.Sim, w *world, dir string, ln *listener, lg *ledger) (*daemon, error) {
	d := &daemon{ln: ln, served: make(chan error, 1)}
	g, stages := newEngine(clock, w, lg)
	d.eng = g
	tracer := trace.New(traceRing)

	sync, err := greylist.ParseSyncPolicy(walSync)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d.wal, d.info, err = greylist.OpenWAL(greylist.WALConfig{
		Path:           walPath(dir),
		CheckpointPath: statePath(dir),
		Sync:           sync,
		SyncEvery:      walSyncInterval,
		CompactBytes:   walCompactEvery,
		Tracer:         tracer,
	}, g)
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	d.recover = time.Since(t0)

	d.srv = smtpserver.New(smtpserver.Config{
		Hostname:      hostname,
		Clock:         clock,
		StampReceived: true,
		ReadTimeout:   5 * time.Minute,
		MaxRcptBatch:  rcptBatch,
		Tracer:        tracer,
		Hooks:         hooks(g, lg),
	})

	reg := metrics.NewRegistry()
	metrics.RegisterProcess(reg)
	g.Register(reg)
	d.srv.Register(reg)
	for _, s := range stages {
		if r, ok := s.(interface{ Register(*metrics.Registry) }); ok {
			r.Register(reg)
		}
	}
	d.wal.Register(reg)

	d.obsv = obs.New(obs.Config{Window: obsWindow, Windows: obsWindows})
	var observer greylist.Observer = d.obsv.Greylist()
	if lg != nil {
		observer = lg.observer(observer)
	}
	g.SetObserver(observer)
	d.obsv.WatchGreylist(g.Stats)
	d.obsv.WatchChain(g.Chain)
	d.obsv.WatchWAL(d.wal)
	srv := d.srv
	d.obsv.Cumulative("smtp.sessions.delivered", func() uint64 {
		n, _, _ := srv.OutcomeCounts()
		return n
	})
	d.obsv.Cumulative("smtp.sessions.deferred", func() uint64 {
		_, n, _ := srv.OutcomeCounts()
		return n
	})
	d.obsv.Cumulative("smtp.sessions.none", func() uint64 {
		_, _, n := srv.OutcomeCounts()
		return n
	})
	d.obsv.Register(reg)
	d.obsv.Start()

	go func() { d.served <- d.srv.Serve(ln) }()
	select {
	case <-ln.ready:
	case err := <-d.served:
		d.obsv.Stop()
		d.wal.Close()
		return nil, fmt.Errorf("serve: %v", err)
	}
	return d, nil
}

// stop shuts the daemon down the way greylistd does on SIGTERM: server,
// observatory, then the WAL's final checkpoint.
func (d *daemon) stop() error {
	d.srv.Close()
	err := <-d.served
	d.obsv.Stop()
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// hooks are greylistd's SMTP hooks, with the accepted-message log line
// written to io.Discard.
func hooks(g *greylist.Greylister, lg *ledger) smtpserver.Hooks {
	deferReply := func(v greylist.Verdict) *smtpproto.Reply {
		if v.Decision == greylist.Pass {
			return nil
		}
		r := smtpproto.NewReply(451, "4.7.1",
			fmt.Sprintf("Greylisted, please retry in %d seconds", int(v.WaitRemaining.Seconds())))
		return &r
	}
	return smtpserver.Hooks{
		OnRcptTraced: func(tr *trace.Trace, clientIP, sender, rcpt string) *smtpproto.Reply {
			t := greylist.Triplet{ClientIP: clientIP, Sender: sender, Recipient: rcpt}
			if !lg.active() {
				return deferReply(g.CheckTraced(t, tr))
			}
			t0 := nanotime()
			v := g.CheckTraced(t, tr)
			t1 := nanotime()
			r := deferReply(v)
			lg.hook(t0, t0, t1, nanotime(), v)
			return r
		},
		// Pipelined RCPT bursts take one trip through the engine's
		// locks instead of one per recipient.
		OnRcptBatch: func(clientIP, sender string, rcpts []string) []*smtpproto.Reply {
			on := lg.active()
			var t0, tc, t1 int64
			if on {
				t0 = nanotime()
			}
			ts := make([]greylist.Triplet, len(rcpts))
			for i, rcpt := range rcpts {
				ts[i] = greylist.Triplet{ClientIP: clientIP, Sender: sender, Recipient: rcpt}
			}
			replies := make([]*smtpproto.Reply, len(rcpts))
			if on {
				tc = nanotime()
			}
			vs := g.CheckBatch(ts, nil)
			if on {
				t1 = nanotime()
			}
			for i, v := range vs {
				replies[i] = deferReply(v)
			}
			if on {
				lg.hook(t0, tc, t1, nanotime(), vs...)
			}
			return replies
		},
		OnMessage: func(env *smtpserver.Envelope) *smtpproto.Reply {
			fmt.Fprintf(io.Discard, "accepted: client=%s from=<%s> rcpts=%d bytes=%d\n",
				env.ClientIP, env.Sender, len(env.Recipients), len(env.Data))
			return nil
		},
		// greylistd always installs the session-end hook; it returns
		// at once unless -fingerprint is set (off by default).
		OnSessionEnd: func(*smtpserver.SessionTrace) {},
	}
}
