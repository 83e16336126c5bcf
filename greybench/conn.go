package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/simtime"
)

// harness is the load side of a run. It owns the virtual clock and the
// workload stream, builds each connection, runs the periodic GC between
// connections, and accounts every reply. Its state is touched by one
// goroutine at a time: the listener's Accept caller between
// connections, the session goroutine during one, the main goroutine
// between rounds; each hand-off is a channel operation.
type harness struct {
	clock *simtime.Sim
	st    *stream
	gc    func() int // the live engine's GC
	lg    *ledger

	dg        digest
	attempted int
	completed int
	failed    int
	failures  []string // first few reasons, for the report
	lat       []int64  // volley latencies (ns) of the current round
}

// digest folds every (session, rcpt, reply code) into one FNV-1a-style
// checksum over 64-bit words.
type digest struct {
	h, n uint64
}

func (d *digest) add(seq uint64, codes []int) {
	if d.h == 0 {
		d.h = 14695981039346656037
	}
	for i, c := range codes {
		d.h ^= seq<<24 | uint64(i)<<12 | uint64(c)
		d.h *= 1099511628211
		d.n++
	}
}

// fail records why a connection went wrong; failed sessions are counted
// when it closes.
func (d *harness) fail(format string, args ...any) {
	if len(d.failures) < 5 {
		d.failures = append(d.failures, fmt.Sprintf(format, args...))
	}
}

// dial builds the next connection: draws its plan, advances virtual
// time to it (sweeping on the way) and returns the scripted client.
func (d *harness) dial(l *listener, wake int64, wakeCPU cpuMark) *clientConn {
	plan := d.st.next()
	var gcNs int64
	d.st.advance(d.clock, plan.at, func() {
		if !d.lg.active() {
			d.gc()
			return
		}
		t0 := nanotime()
		n := d.gc()
		gcNs += nanotime() - t0
		d.lg.gcCalls++
		d.lg.gcRemoved += int64(n)
	})
	d.attempted += len(plan.sessions)
	c := &clientConn{l: l, d: d, plan: plan, remote: addr(plan.sessions[0].ip + ":1025")}
	c.want = 1 // the banner
	if d.lg.active() {
		d.lg.gcNs += gcNs
		d.lg.harnessNs += nanotime() - wake - gcNs
		d.lg.foreground(wake, wakeCPU)
	}
	return c
}

// listener is the daemon's net.Listener. Accept returns one connection
// at a time: it waits until the previous one is closed, and between
// rounds until the main goroutine grants the next round's budget.
type listener struct {
	d        *harness
	closed   chan struct{}
	once     sync.Once
	ready    chan struct{} // closed by the first Accept: the server is accepting
	rounds   chan int      // connection budgets
	done     chan struct{} // the round's last connection has closed
	connDone chan struct{} // the outstanding connection has closed
	budget   int
	busy     bool
	inRound  bool
}

func newListener(d *harness) *listener {
	return &listener{
		d:        d,
		closed:   make(chan struct{}),
		ready:    make(chan struct{}),
		rounds:   make(chan int),
		done:     make(chan struct{}),
		connDone: make(chan struct{}, 1),
	}
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case <-l.ready:
	default:
		close(l.ready)
	}
	if l.busy {
		select {
		case <-l.connDone:
		case <-l.closed:
			return nil, net.ErrClosed
		}
		l.busy = false
	}
	for l.budget == 0 {
		if l.inRound {
			l.inRound = false
			select {
			case l.done <- struct{}{}:
			case <-l.closed:
				return nil, net.ErrClosed
			}
		}
		select {
		case n := <-l.rounds:
			l.budget, l.inRound = n, true
		case <-l.closed:
			return nil, net.ErrClosed
		}
	}
	wake, wakeCPU := nanotime(), l.d.lg.mark()
	l.budget--
	l.busy = true
	return l.d.dial(l, wake, wakeCPU), nil
}

// round serves n connections and returns once the last has closed.
func (l *listener) round(n int, served <-chan error) error {
	select {
	case l.rounds <- n:
	case err := <-served:
		return fmt.Errorf("server stopped: %v", err)
	}
	select {
	case <-l.done:
		return nil
	case err := <-served:
		return fmt.Errorf("server stopped: %v", err)
	}
}

func (l *listener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *listener) Addr() net.Addr { return addr("greybench:25") }

type addr string

func (a addr) Network() string { return "tcp" }
func (a addr) String() string  { return string(a) }

// Client states.
const (
	stBanner = iota
	stEhlo
	stVolley
	stData
	stPayload
	stQuit
	stEOF
)

// clientConn is an in-memory net.Conn whose peer is a scripted SMTP
// client. The client runs inside the server's calls: Write parses the
// server's replies and advances the script, Read hands over the next
// commands. A session therefore runs on the server's goroutine alone.
type clientConn struct {
	l      *listener
	d      *harness
	plan   *connPlan
	remote addr

	i        int // current session
	st       int
	out      []byte // commands not yet read by the server
	buf      []byte // backing store for out
	carry    []byte // partial reply line
	want     int    // replies still owed before the client sends more
	got      int    // replies received in the current volley
	lead     int    // replies preceding the RCPT replies (RSET, MAIL)
	codes    []int
	accepted int
	volleyAt int64
	done     int // sessions completed
	closed   bool
	broken   bool

	started  bool
	startNs  int64
	startCPU cpuMark
}

func (c *clientConn) begin() {
	c.started = true
	if c.d.lg.active() {
		c.startNs, c.startCPU = nanotime(), c.d.lg.mark()
	}
}

func (c *clientConn) Read(p []byte) (int, error) {
	var t0 int64
	if c.d.lg.active() {
		t0 = nanotime()
		defer func() { c.d.lg.ioNs += nanotime() - t0 }()
	}
	if !c.started {
		c.begin()
	}
	if len(c.out) == 0 {
		if c.st != stEOF && !c.broken {
			c.breakf("server reads while %d replies are owed (state %d)", c.want, c.st)
		}
		return 0, io.EOF
	}
	n := copy(p, c.out)
	c.out = c.out[n:]
	if len(c.out) == 0 && c.st == stVolley {
		c.volleyAt = nanotime()
	}
	return n, nil
}

func (c *clientConn) Write(p []byte) (int, error) {
	var t0 int64
	if c.d.lg.active() {
		t0 = nanotime()
		c.d.lg.writes++
		defer func() { c.d.lg.ioNs += nanotime() - t0 }()
	}
	if !c.started {
		c.begin()
	}
	data := p
	if len(c.carry) > 0 {
		c.carry = append(c.carry, p...)
		data = c.carry
	}
	for !c.broken {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(line) < 4 || line[3] == ' ' || line[3] == '\r' {
			c.reply(line)
		}
	}
	c.carry = append(c.carry[:0], data...)
	return len(p), nil
}

func (c *clientConn) breakf(format string, args ...any) {
	if !c.broken {
		c.broken = true
		c.d.fail("%s: "+format, append([]any{c.plan.sessions[0].ip}, args...)...)
	}
}

func replyCode(line []byte) int {
	if len(line) < 3 {
		return -1
	}
	n := 0
	for _, b := range line[:3] {
		if b < '0' || b > '9' {
			return -1
		}
		n = n*10 + int(b-'0')
	}
	return n
}

// reply consumes the last line of one server reply.
func (c *clientConn) reply(line []byte) {
	code := replyCode(line)
	if c.want == 0 {
		c.breakf("unsolicited reply %q", line)
		return
	}
	c.want--
	expect := func(want int) bool {
		if code != want {
			c.breakf("state %d: got %q, want %d", c.st, line, want)
			return false
		}
		return true
	}
	switch c.st {
	case stBanner:
		if expect(220) {
			c.queue("EHLO ", c.plan.sessions[0].helo, "\r\n")
			c.st, c.want = stEhlo, 1
		}
	case stEhlo:
		if expect(250) {
			c.volley(false)
		}
	case stVolley:
		c.got++
		if c.got <= c.lead {
			if !expect(250) {
				return
			}
		} else {
			switch code {
			case 250:
				c.accepted++
			case 451:
			default:
				c.breakf("RCPT got %q", line)
				return
			}
			c.codes = append(c.codes, code)
		}
		if c.want == 0 {
			c.volleyDone()
		}
	case stData:
		if expect(354) {
			c.queuePayload(c.plan.sessions[c.i].msg)
			c.st, c.want = stPayload, 1
		}
	case stPayload:
		if expect(250) {
			c.done++
			c.next(true)
		}
	case stQuit:
		if expect(221) {
			c.st = stEOF
		}
	default:
		c.breakf("reply %q after the script ended", line)
	}
}

// volley queues the current session's MAIL and RCPT commands as one
// pipelined burst, led by RSET when the previous transaction left an
// envelope open.
func (c *clientConn) volley(rset bool) {
	s := c.plan.sessions[c.i]
	c.lead = 1
	if rset {
		c.queue("RSET\r\n")
		c.lead = 2
	}
	c.queue("MAIL FROM:<", s.sender, ">\r\n")
	for _, r := range s.rcpts {
		c.queue("RCPT TO:<", r, ">\r\n")
	}
	c.st, c.want, c.got = stVolley, c.lead+len(s.rcpts), 0
	c.codes, c.accepted, c.volleyAt = c.codes[:0], 0, 0
}

func (c *clientConn) volleyDone() {
	d := c.d
	d.lat = append(d.lat, nanotime()-c.volleyAt)
	s := c.plan.sessions[c.i]
	d.dg.add(d.st.seq, c.codes)
	d.st.seq++
	d.st.wl.observe(s, c.codes)
	if c.accepted > 0 && s.msg > 0 {
		c.queue("DATA\r\n")
		c.st, c.want = stData, 1
		return
	}
	c.done++
	c.next(false)
}

// next moves to the following session on this connection, or ends it.
func (c *clientConn) next(afterData bool) {
	c.i++
	switch {
	case c.i < len(c.plan.sessions):
		c.volley(!afterData)
	case c.plan.abort:
		c.st = stEOF
	default:
		c.queue("QUIT\r\n")
		c.st, c.want = stQuit, 1
	}
}

func (c *clientConn) queue(parts ...string) {
	if len(c.out) == 0 {
		c.out = c.buf[:0]
	}
	for _, p := range parts {
		c.out = append(c.out, p...)
	}
	c.buf = c.out[:0]
}

func (c *clientConn) queueBytes(b []byte) {
	if len(c.out) == 0 {
		c.out = c.buf[:0]
	}
	c.out = append(c.out, b...)
	c.buf = c.out[:0]
}

func (c *clientConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	d := c.d
	if d.lg.active() && c.started {
		d.lg.sessNs += nanotime() - c.startNs
		d.lg.foreground(c.startNs, c.startCPU)
	}
	if c.st != stEOF && !c.broken {
		d.fail("%s: connection closed in state %d", c.plan.sessions[0].ip, c.st)
	}
	// A session counts as completed once all its replies arrived; a
	// connection that then ends badly fails its last session too.
	bad := len(c.plan.sessions) - c.done
	if bad == 0 && (c.broken || c.st != stEOF) {
		bad = 1
	}
	d.completed += len(c.plan.sessions) - bad
	d.failed += bad
	c.l.connDone <- struct{}{}
	return nil
}

func (c *clientConn) LocalAddr() net.Addr              { return addr("greybench:25") }
func (c *clientConn) RemoteAddr() net.Addr             { return c.remote }
func (c *clientConn) SetDeadline(time.Time) error      { return nil }
func (c *clientConn) SetReadDeadline(time.Time) error  { return nil }
func (c *clientConn) SetWriteDeadline(time.Time) error { return nil }

// body is the DATA text every message is cut from: a header, then
// 78-column lines.
var body = func() []byte {
	b := []byte("Subject: greybench\r\n\r\n")
	line := strings.Repeat("x", 76) + "\r\n"
	for len(b) < 64<<10 {
		b = append(b, line...)
	}
	return b
}()

// queuePayload queues a message of at least n bytes, cut at a line
// boundary, and the terminating dot.
func (c *clientConn) queuePayload(n int) {
	const hdr, line = len("Subject: greybench\r\n\r\n"), 78
	end := hdr + (max(n-hdr, 0)+line-1)/line*line
	c.queueBytes(body[:min(end, len(body))])
	c.queue(".\r\n")
}
