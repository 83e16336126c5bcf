package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/smtpproto"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

// listWorkload replays fixed plans and records the codes it observes.
type listWorkload struct {
	plans []*connPlan
	i     int
	codes [][]int
}

func (l *listWorkload) next() *connPlan {
	p := l.plans[l.i]
	l.i++
	return p
}

func (l *listWorkload) observe(_ *session, codes []int) {
	l.codes = append(l.codes, append([]int(nil), codes...))
}

func (l *listWorkload) clone() workload {
	c := *l
	return &c
}

// serve runs plans through srv over the benchmark's listener, with lg's
// timers on when lg is given, and returns the harness's accounting.
func serve(t *testing.T, srv *smtpserver.Server, plans []*connPlan, lg *ledger) (*harness, *listWorkload) {
	t.Helper()
	wl := &listWorkload{plans: plans}
	drv := &harness{
		clock: simtime.NewSim(simtime.Epoch),
		st:    &stream{wl: wl, gcEvery: time.Hour, nextGC: simtime.Epoch.Add(1000 * time.Hour)},
		gc:    func() int { return 0 },
		lg:    lg,
	}
	ln := newListener(drv)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	if err := ln.round(len(plans), served); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	return drv, wl
}

// deferD defers every recipient whose mailbox starts with "d".
func deferD(rcpt string) *smtpproto.Reply {
	if strings.HasPrefix(rcpt, "d") {
		r := smtpproto.NewReply(451, "4.7.1", "Greylisted")
		return &r
	}
	return nil
}

func testPlans() ([]*connPlan, [][]int) {
	at := simtime.Epoch.Add(time.Hour)
	mk := func(rcpts []string, msg int) *session {
		return &session{at: at, ip: "192.0.2.7", helo: "client.example", sender: "s@example.org", rcpts: rcpts, msg: msg}
	}
	// A volley long enough to cross the server's 4 KiB read buffer,
	// so its replies arrive in more than one flush.
	var long []string
	var longCodes []int
	for i := 0; i < 90; i++ {
		if i%3 == 0 {
			long = append(long, fmt.Sprintf("d%02d-%s@example.net", i, strings.Repeat("x", 40)))
			longCodes = append(longCodes, 451)
		} else {
			long = append(long, fmt.Sprintf("a%02d-%s@example.net", i, strings.Repeat("x", 40)))
			longCodes = append(longCodes, 250)
		}
	}
	plans := []*connPlan{
		// Kept connection: DATA after an accepted volley, then a
		// volley that is wholly deferred, then one led by RSET.
		{at: at, sessions: []*session{
			mk([]string{"a1@x", "d1@x", "a2@x"}, 3000),
			mk([]string{"d2@x", "d3@x"}, 500),
			mk([]string{"a3@x"}, 0),
		}},
		{at: at, sessions: []*session{mk(long, 0)}},
		{at: at, sessions: []*session{mk([]string{"d4@x"}, 0)}, abort: true},
	}
	want := [][]int{{250, 451, 250}, {451, 451}, {250}, longCodes, {451}}
	return plans, want
}

func checkCodes(t *testing.T, got, want [][]int) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("codes\n got %v\nwant %v", got, want)
	}
}

func TestClientPipelinedBatchPath(t *testing.T) {
	var messages []int
	srv := smtpserver.New(smtpserver.Config{
		Hooks: smtpserver.Hooks{
			OnRcptBatch: func(_, _ string, rcpts []string) []*smtpproto.Reply {
				out := make([]*smtpproto.Reply, len(rcpts))
				for i, r := range rcpts {
					out[i] = deferD(r)
				}
				return out
			},
			OnMessage: func(env *smtpserver.Envelope) *smtpproto.Reply {
				messages = append(messages, len(env.Data))
				return nil
			},
		},
	})
	plans, want := testPlans()
	drv, wl := serve(t, srv, plans, nil)
	if len(drv.failures) > 0 {
		t.Fatal(drv.failures)
	}
	checkCodes(t, wl.codes, want)
	if drv.attempted != 5 || drv.completed != 5 || drv.failed != 0 {
		t.Fatalf("attempted %d completed %d failed %d, want 5/5/0", drv.attempted, drv.completed, drv.failed)
	}
	// Only the first session had an accepted recipient and a payload.
	if len(messages) != 1 || messages[0] < 3000 {
		t.Fatalf("messages %v, want one of at least 3000 bytes", messages)
	}
	if want := uint64(3 + 2 + 1 + 90 + 1); drv.dg.n != want {
		t.Fatalf("digest covers %d replies, want %d", drv.dg.n, want)
	}
}

// TestClientSerialTracedPath runs the same plans the way greylistd's
// wiring serves them: with a trace ring, every RCPT takes the serial
// hook and replies are coalesced only by the server's flush rule.
func TestClientSerialTracedPath(t *testing.T) {
	srv := smtpserver.New(smtpserver.Config{
		Tracer: trace.New(8),
		Hooks: smtpserver.Hooks{
			OnRcptTraced: func(_ *trace.Trace, _, _, rcpt string) *smtpproto.Reply { return deferD(rcpt) },
			OnRcptBatch: func(_, _ string, rcpts []string) []*smtpproto.Reply {
				t.Error("batch hook called on a traced session")
				return nil
			},
		},
	})
	lg := &ledger{on: true}
	plans, want := testPlans()
	drv, wl := serve(t, srv, plans, lg)
	if len(drv.failures) > 0 {
		t.Fatal(drv.failures)
	}
	checkCodes(t, wl.codes, want)
	// Per connection: banner, EHLO, one write per volley (the long
	// volley needs more), DATA's 354 and 250, QUIT. Far fewer writes
	// than replies shows the pipelined replies were coalesced.
	if uint64(lg.writes) >= drv.dg.n {
		t.Fatalf("%d writes for %d RCPT replies: replies were not coalesced", lg.writes, drv.dg.n)
	}
	if lg.sessNs <= 0 || lg.ioNs <= 0 || lg.ioNs > lg.sessNs {
		t.Fatalf("session %dns, client I/O %dns", lg.sessNs, lg.ioNs)
	}
}

// TestClientDetectsProtocolBreak checks that a reply the script does not
// expect fails the session instead of being miscounted.
func TestClientDetectsProtocolBreak(t *testing.T) {
	srv := smtpserver.New(smtpserver.Config{
		Hooks: smtpserver.Hooks{
			OnMail: func(_, _ string) *smtpproto.Reply {
				r := smtpproto.NewReply(550, "5.7.1", "no")
				return &r
			},
		},
	})
	plans, _ := testPlans()
	drv, _ := serve(t, srv, plans[2:], nil)
	if drv.failed != 1 || drv.completed != 0 || len(drv.failures) != 1 {
		t.Fatalf("failed %d completed %d failures %q, want one failed session", drv.failed, drv.completed, drv.failures)
	}
}
