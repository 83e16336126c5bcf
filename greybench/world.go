package main

import (
	"fmt"
	"time"

	"repro/internal/dnsbl"
	"repro/internal/dnsmsg"
	"repro/internal/dnsserver"
	"repro/internal/mta"
	"repro/internal/webmail"
)

// The world is the static population every workload draws from: the
// protected mailboxes, the legitimate MTAs and webmail providers with
// their DNS footprint, and the DNS zones the bypass chain queries. It
// does not depend on the seed; the seed only drives the traffic.
const (
	mailboxes      = 5000 // recipients at the protected domain
	knownMTAs      = 2000 // established ham senders
	spamDomains    = 4096 // sender domains bots forge (no DNS records)
	dnswlOrigin    = "list.dnswl.example"
	protectedHost  = "mx.greybench.example"
	recordTTL      = 3600
	sendersPerMTA  = 8
	sendersPerMail = 16
)

// origin is one legitimate sending system: an MTA with a Table IV retry
// schedule, or a webmail provider with its Table III pool and delays.
type origin struct {
	domain   string
	helo     string
	pool     []string        // client IPs; attempt i uses pool[min(i, len-1)] rotation
	attempts []time.Duration // attempt offsets, the first at 0
	senders  []string
}

// ipFor maps an attempt index to the client IP, following the webmail
// pool model (each address once, then the first again).
func (o *origin) ipFor(attempt int) string {
	if attempt < len(o.pool) {
		return o.pool[attempt]
	}
	return o.pool[0]
}

type world struct {
	rcpts   []string
	mtas    []*origin
	webmail []*origin
	spamDom []string
	dns     *dnsserver.Server
}

func newWorld() *world {
	w := &world{dns: dnsserver.New()}
	for i := 0; i < mailboxes; i++ {
		w.rcpts = append(w.rcpts, fmt.Sprintf("u%04d@%s", i, protectedHost))
	}
	for i := 0; i < spamDomains; i++ {
		w.spamDom = append(w.spamDom, fmt.Sprintf("d%04d.spam.example", i))
	}

	example := dnsserver.NewZone("example")
	arpa := dnsserver.NewZone("in-addr.arpa")
	dnswl := dnsserver.NewZone(dnswlOrigin)
	schedules := mta.All()
	for i := 0; i < knownMTAs; i++ {
		ip := fmt.Sprintf("172.16.%d.%d", i/250, i%250+1)
		o := &origin{
			domain:   fmt.Sprintf("corp%04d.example", i),
			pool:     []string{ip},
			attempts: schedules[i%len(schedules)].AttemptTimes(0),
		}
		o.helo = "mx." + o.domain
		for j := 0; j < sendersPerMTA; j++ {
			o.senders = append(o.senders, fmt.Sprintf("user%d@%s", j, o.domain))
		}
		// Half the MTAs publish SPF (the chain re-keys them by domain);
		// of the rest, some are DNSWL-listed and some carry a
		// mail-server PTR name, so every bypass stage decides something.
		switch {
		case i%2 == 0:
			example.MustAdd(dnsmsg.RR{Name: o.domain, Type: dnsmsg.TypeTXT, TTL: recordTTL,
				Data: dnsmsg.TXT{Strings: []string{"v=spf1 ip4:" + ip + " -all"}}})
		case i%10 == 1 || i%10 == 3:
			rev, _ := dnsbl.ReverseIPv4(ip)
			dnswl.MustAdd(dnsmsg.RR{Name: rev + "." + dnswlOrigin, Type: dnsmsg.TypeA, TTL: recordTTL,
				Data: dnsbl.ListedAddr})
		case i%10 == 5 || i%10 == 7:
			rev, _ := dnsbl.ReverseIPv4(ip)
			arpa.MustAdd(dnsmsg.RR{Name: rev + ".in-addr.arpa", Type: dnsmsg.TypePTR, TTL: recordTTL,
				Data: dnsmsg.PTR{Target: "mail." + o.domain}})
		}
		w.mtas = append(w.mtas, o)
	}
	for i, p := range webmail.Top10() {
		o := &origin{
			domain:   p.Name,
			helo:     "out." + p.Name,
			pool:     p.DefaultPool(i),
			attempts: p.AttemptTimes(),
		}
		for j := 0; j < sendersPerMail; j++ {
			o.senders = append(o.senders, fmt.Sprintf("person%d@%s", j, p.Name))
		}
		z := dnsserver.NewZone(p.Name)
		z.MustAdd(dnsmsg.RR{Name: p.Name, Type: dnsmsg.TypeTXT, TTL: recordTTL,
			Data: dnsmsg.TXT{Strings: []string{fmt.Sprintf("v=spf1 ip4:198.18.%d.0/24 -all", i+1)}}})
		w.dns.AddZone(z)
		w.webmail = append(w.webmail, o)
	}
	w.dns.AddZones(example, arpa, dnswl)
	return w
}
