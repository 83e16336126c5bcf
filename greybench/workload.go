package main

import (
	"container/heap"
	"fmt"
	"time"

	"repro/internal/loadgen"
	"repro/internal/simtime"
)

// session is one SMTP transaction: the envelope a client sends as one
// pipelined MAIL+RCPT volley, and the DATA payload it sends when some
// recipient is accepted.
type session struct {
	at     time.Time
	ip     string
	helo   string
	sender string
	rcpts  []string
	msg    int // payload bytes sent after an accepted RCPT; 0 = never DATA

	// Retry bookkeeping, read by observe.
	ham     *hamMsg       // legitimate message on its origin's schedule
	botWait time.Duration // >0: a bot that retries once, this long after
}

// hamMsg tracks one legitimate message through its sender's retry
// schedule.
type hamMsg struct {
	o       *origin
	first   time.Time
	attempt int
}

// connPlan is one client connection: every session runs at the same
// virtual instant, later sessions leading with RSET when the previous
// transaction did not end in DATA.
type connPlan struct {
	at       time.Time
	sessions []*session
	abort    bool // drop the connection instead of sending QUIT
}

// workload is a seeded traffic source. observe feeds back the RCPT
// reply codes (250 or 451) of each session, so legitimate senders can
// retry what was deferred; generation is a pure function of the seed
// and that feedback, which is itself a function of the seed.
type workload interface {
	next() *connPlan
	observe(s *session, codes []int)
	clone() workload
}

// gcEvery mirrors greylistd's -gc default.
const gcEvery = 10 * time.Minute

// stream is a workload plus the virtual-time state every runner of it
// shares: the periodic GC schedule and the session counter that numbers
// replies in the digest.
type stream struct {
	wl      workload
	gcEvery time.Duration
	nextGC  time.Time
	seq     uint64
	held    *connPlan // drawn but not yet run (see unread)
}

func (st *stream) next() *connPlan {
	if p := st.held; p != nil {
		st.held = nil
		return p
	}
	return st.wl.next()
}

// unread hands p back: the next call to next returns it again.
func (st *stream) unread(p *connPlan) { st.held = p }

func (st *stream) clone() *stream {
	c := *st
	c.wl = st.wl.clone()
	return &c
}

// advance moves virtual time to at, running gc at every gcEvery
// boundary on the way, the way greylistd's -gc ticker interleaves
// sweeps with sessions.
func (st *stream) advance(clock *simtime.Sim, at time.Time, gc func()) {
	for !st.nextGC.After(at) {
		clock.AdvanceTo(st.nextGC)
		gc()
		st.nextGC = st.nextGC.Add(st.gcEvery)
	}
	clock.AdvanceTo(at)
}

// rng is splitmix64: small, fast and copyable, so a workload snapshot
// is a struct copy.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// arrivals wraps loadgen's ham/spam arrival process so it can be
// snapshotted: a clone rebuilds the process from its seed and skips
// the events already drawn.
type arrivals struct {
	cfg loadgen.ArrivalConfig
	a   *loadgen.Arrivals
	n   int
}

func newArrivals(cfg loadgen.ArrivalConfig) *arrivals {
	return &arrivals{cfg: cfg, a: loadgen.NewArrivals(cfg)}
}

func (a *arrivals) next() loadgen.Event {
	a.n++
	return a.a.Next()
}

func (a *arrivals) clone() *arrivals {
	c := newArrivals(a.cfg)
	for c.n < a.n {
		c.next()
	}
	return c
}

func pickRcpts(r *rng, w *world, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = w.rcpts[r.intn(len(w.rcpts))]
	}
	return out
}

// addrIn maps k to a distinct address of 100.64.0.0/10 for every k
// below 2^22 (multiplication by an odd constant permutes the range).
func addrIn(k uint32) string {
	v := (k * 2654435761) & (1<<22 - 1)
	return fmt.Sprintf("100.%d.%d.%d", 64+v>>16, (v>>8)&255, v&255)
}

// ---- mixed: the daemon's steady state ----

// The bot population is small enough (2048 addresses in 64 /24s, 32
// forged domains) that the bypass and SPF caches fill during the
// warm-up round, so the heap measures the table, not cache growth.
const (
	mixedRate    = 0.025 // virtual sessions/s; sizes the 48 h table to ~60k pending triplets
	mixedHam     = 0.25
	mixedBurst   = 2 // short campaigns: ~1300 per 48 h keep the table within a few percent of its mean
	bots         = 2048
	botNets      = 64
	botDomains   = 32
	botRetryPct  = 5
	retryingBots = 64
)

type mixedGen struct {
	w            *world
	arr          *arrivals
	peek         loadgen.Event
	peeked       bool
	base         time.Time
	hamOnlyUntil time.Time // spam arrivals before this are dropped (prep)
	r            rng
	retries      retryHeap
	retrySeq     uint64
	fresh        uint32 // first-contact MTAs so far
	msgs         uint64 // spam messages so far (per-message senders)
}

func newMixed(w *world, seed int64, base time.Time) *mixedGen {
	return &mixedGen{
		w:    w,
		arr:  newArrivals(loadgen.ArrivalConfig{Rate: mixedRate, HamFraction: mixedHam, SpamBurst: mixedBurst, Seed: seed}),
		base: base,
		r:    rng{uint64(seed)*0x2545f4914f6cdd1d + 1},
	}
}

func (m *mixedGen) clone() workload {
	c := *m
	c.arr = m.arr.clone()
	c.retries = append(retryHeap(nil), m.retries...)
	return &c
}

func (m *mixedGen) next() *connPlan {
	for {
		if !m.peeked {
			m.peek, m.peeked = m.arr.next(), true
		}
		at := m.base.Add(m.peek.At)
		if len(m.retries) > 0 && !m.retries[0].s.at.After(at) {
			s := heap.Pop(&m.retries).(*retry).s
			return &connPlan{at: s.at, sessions: []*session{s}}
		}
		m.peeked = false
		if m.peek.Shape.Class == loadgen.Ham {
			return &connPlan{at: at, sessions: []*session{m.ham(at, m.peek.Shape)}}
		}
		if at.Before(m.hamOnlyUntil) {
			continue
		}
		return &connPlan{at: at, sessions: []*session{m.spam(at, m.peek.Shape)},
			abort: m.peek.Shape.End == loadgen.EndAbort}
	}
}

// ham draws a legitimate message: a quarter from webmail providers, a
// tenth from MTAs never seen before, the rest from the established MTA
// pool with a skewed popularity (a few busy correspondents, a long
// tail that never earns the auto-whitelist).
func (m *mixedGen) ham(at time.Time, sh loadgen.Shape) *session {
	var o *origin
	switch x := m.r.intn(100); {
	case x < 25:
		o = m.w.webmail[m.r.intn(len(m.w.webmail))]
	case x < 35:
		m.fresh++
		k := m.fresh
		o = &origin{
			domain:   fmt.Sprintf("fresh%d.example", k),
			pool:     []string{fmt.Sprintf("172.%d.%d.%d", 20+k>>16&3, k>>8&255, k&255)},
			attempts: m.w.mtas[int(k)%len(m.w.mtas)].attempts,
		}
		o.helo = "mta." + o.domain
		o.senders = []string{"info@" + o.domain}
	default:
		f := m.r.float()
		o = m.w.mtas[int(f*f*float64(len(m.w.mtas)))]
	}
	return &session{
		at:     at,
		ip:     o.ipFor(0),
		helo:   o.helo,
		sender: o.senders[m.r.intn(len(o.senders))],
		rcpts:  pickRcpts(&m.r, m.w, sh.Rcpts),
		msg:    sh.MsgBytes,
		ham:    &hamMsg{o: o, first: at},
	}
}

// spam draws a bot session: a rotating bot address, a per-message
// sender at a forged domain, and a 4–32 recipient volley. One session
// in twenty comes from a Kelihos-style family that retries once,
// between 1 and 30 minutes later, from its own small pool: an accepted
// retry earns its address the auto-whitelist, and the pool is small
// enough to be saturated by the end of the prep, so the table stays
// stationary.
func (m *mixedGen) spam(at time.Time, sh loadgen.Shape) *session {
	m.msgs++
	s := &session{
		at:     at,
		ip:     botAddr(m.r.intn(bots)),
		sender: fmt.Sprintf("m%d@%s", m.msgs, m.w.spamDom[m.r.intn(botDomains)]),
		rcpts:  pickRcpts(&m.r, m.w, sh.Rcpts),
		msg:    sh.MsgBytes,
	}
	if m.r.intn(100) < botRetryPct {
		s.ip = fmt.Sprintf("100.127.0.%d", 1+m.r.intn(retryingBots))
		s.botWait = time.Minute + time.Duration(m.r.intn(29*60))*time.Second
	}
	s.helo = "pc-" + s.ip
	return s
}

// botAddr places bot k in one of botNets /24s of 100.64.0.0/10.
func botAddr(k int) string {
	return fmt.Sprintf("100.%d.%d.%d", 64+k%botNets, 7*(k%botNets), 2+k/botNets)
}

func (m *mixedGen) observe(s *session, codes []int) {
	var deferred []string
	for i, c := range codes {
		if c == 451 {
			deferred = append(deferred, s.rcpts[i])
		}
	}
	if len(deferred) == 0 {
		return
	}
	switch {
	case s.ham != nil:
		h := s.ham
		if h.attempt+1 >= len(h.o.attempts) {
			return // the sender's queue gives up
		}
		nh := &hamMsg{o: h.o, first: h.first, attempt: h.attempt + 1}
		m.push(&session{at: h.first.Add(h.o.attempts[nh.attempt]), ip: h.o.ipFor(nh.attempt), helo: s.helo,
			sender: s.sender, rcpts: deferred, msg: s.msg, ham: nh})
	case s.botWait > 0:
		m.push(&session{at: s.at.Add(s.botWait), ip: s.ip, helo: s.helo, sender: s.sender,
			rcpts: deferred, msg: s.msg})
	}
}

func (m *mixedGen) push(s *session) {
	m.retrySeq++
	heap.Push(&m.retries, &retry{s: s, seq: m.retrySeq})
}

type retry struct {
	s   *session
	seq uint64
}

// retryHeap orders scheduled retries by time, then by scheduling order.
type retryHeap []*retry

func (h retryHeap) Len() int { return len(h) }
func (h retryHeap) Less(i, j int) bool {
	if !h[i].s.at.Equal(h[j].s.at) {
		return h[i].s.at.Before(h[j].s.at)
	}
	return h[i].seq < h[j].seq
}
func (h retryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x any)   { *h = append(*h, x.(*retry)) }
func (h *retryHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return x
}

// ---- probe: known clients over kept connections ----

const (
	probeClients  = 64
	probeSenders  = 4
	probePerConn  = 16
	probeRate     = 2000 // virtual sessions/s: the run spans minutes, inside every cache TTL
	probeDancedAt = 6 * time.Minute
)

type probeGen struct {
	w       *world
	clients []*origin
	arr     *arrivals
	base    time.Time
	r       rng
}

func newProbe(w *world, seed int64, base time.Time) *probeGen {
	p := &probeGen{
		w:    w,
		arr:  newArrivals(loadgen.ArrivalConfig{Rate: probeRate, Probe: true, Seed: seed}),
		base: base,
		r:    rng{uint64(seed)*0x2545f4914f6cdd1d + 2},
	}
	for i := 0; i < probeClients; i++ {
		o := &origin{domain: fmt.Sprintf("probe%02d.example", i), pool: []string{fmt.Sprintf("10.77.0.%d", i+1)}}
		o.helo = "relay." + o.domain
		for j := 0; j < probeSenders; j++ {
			o.senders = append(o.senders, fmt.Sprintf("app%d@%s", j, o.domain))
		}
		p.clients = append(p.clients, o)
	}
	return p
}

func (p *probeGen) clone() workload {
	c := *p
	c.arr = p.arr.clone()
	return &c
}

func (p *probeGen) next() *connPlan {
	o := p.clients[p.r.intn(len(p.clients))]
	plan := &connPlan{}
	for i := 0; i < probePerConn; i++ {
		ev := p.arr.next()
		if i == 0 {
			plan.at = p.base.Add(ev.At)
		}
		plan.sessions = append(plan.sessions, &session{
			at: plan.at, ip: o.pool[0], helo: o.helo,
			sender: o.senders[p.r.intn(len(o.senders))],
			rcpts:  pickRcpts(&p.r, p.w, ev.Shape.Rcpts),
		})
	}
	return plan
}

func (p *probeGen) observe(*session, []int) {}

// dance returns the plans that take every probe client through one
// greylisting dance and four more deliveries, which earns the
// auto-whitelist (-auto-whitelist 5).
func (p *probeGen) dance(start time.Time) []*connPlan {
	var plans []*connPlan
	for _, o := range p.clients {
		s := &session{at: start, ip: o.pool[0], helo: o.helo, sender: o.senders[0], rcpts: p.w.rcpts[:1]}
		plans = append(plans, &connPlan{at: start, sessions: []*session{s}})
	}
	at := start.Add(probeDancedAt)
	for _, o := range p.clients {
		plan := &connPlan{at: at}
		for i := 0; i < autoWhitelist; i++ {
			plan.sessions = append(plan.sessions,
				&session{at: at, ip: o.pool[0], helo: o.helo, sender: o.senders[0], rcpts: p.w.rcpts[:1]})
		}
		plans = append(plans, plan)
	}
	return plans
}

// ---- rotation: a snowshoe flood ----

const rotationRate = 50 // virtual sessions/s: a run stays far inside every expiry

type rotationGen struct {
	w    *world
	arr  *arrivals
	base time.Time
	r    rng
	off  uint32
	n    uint32
}

func newRotation(w *world, seed int64, base time.Time) *rotationGen {
	return &rotationGen{
		w:    w,
		arr:  newArrivals(loadgen.ArrivalConfig{Rate: rotationRate, Seed: seed}),
		base: base,
		r:    rng{uint64(seed)*0x2545f4914f6cdd1d + 3},
		off:  uint32(seed) * 7919,
	}
}

func (g *rotationGen) clone() workload {
	c := *g
	c.arr = g.arr.clone()
	return &c
}

// next draws a bot session from an address and sender never used
// before in the run.
func (g *rotationGen) next() *connPlan {
	ev := g.arr.next()
	g.n++
	at := g.base.Add(ev.At)
	s := &session{
		at:     at,
		ip:     addrIn(g.n + g.off),
		sender: fmt.Sprintf("r%d@%s", g.n, g.w.spamDom[g.r.intn(len(g.w.spamDom))]),
		rcpts:  pickRcpts(&g.r, g.w, ev.Shape.Rcpts),
		msg:    ev.Shape.MsgBytes,
	}
	s.helo = "host-" + s.ip
	return &connPlan{at: at, sessions: []*session{s}, abort: ev.Shape.End == loadgen.EndAbort}
}

func (g *rotationGen) observe(*session, []int) {}
