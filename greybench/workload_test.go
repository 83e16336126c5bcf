package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// oracle answers every RCPT deterministically from the triplet, standing
// in for the engine so the generators' retry feedback is exercised.
func oracle(s *session) []int {
	codes := make([]int, len(s.rcpts))
	for i, r := range s.rcpts {
		h := fnv.New32a()
		fmt.Fprint(h, s.ip, s.sender, r)
		codes[i] = 250
		if h.Sum32()%3 != 0 {
			codes[i] = 451
		}
	}
	return codes
}

// draw renders n connections of wl, feeding the oracle's codes back.
func draw(wl workload, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		p := wl.next()
		fmt.Fprintf(&b, "%s abort=%v\n", p.at.Format("2006-01-02T15:04:05.000000000"), p.abort)
		for _, s := range p.sessions {
			fmt.Fprintf(&b, "  %s %s %s %v %d\n", s.ip, s.helo, s.sender, s.rcpts, s.msg)
			wl.observe(s, oracle(s))
		}
	}
	return b.String()
}

var generators = map[string]func(w *world, seed int64) workload{
	"mixed":    func(w *world, seed int64) workload { return newMixed(w, seed, simtime.Epoch) },
	"probe":    func(w *world, seed int64) workload { return newProbe(w, seed, simtime.Epoch) },
	"rotation": func(w *world, seed int64) workload { return newRotation(w, seed, simtime.Epoch) },
}

func TestWorkloadIsPureFunctionOfSeed(t *testing.T) {
	w := newWorld()
	for name, gen := range generators {
		a, b := draw(gen(w, 7), 2000), draw(gen(w, 7), 2000)
		if a != b {
			t.Errorf("%s: two generators with seed 7 diverged", name)
		}
		if c := draw(gen(w, 8), 2000); a == c {
			t.Errorf("%s: seeds 7 and 8 drew the same traffic", name)
		}
	}
	if len(specs) != len(generators) {
		t.Errorf("%d workloads specified, %d tested", len(specs), len(generators))
	}
}

// TestCloneContinuesIdentically guards the replay: a snapshot taken
// mid-stream must draw exactly what the original draws next, retries
// already scheduled included.
func TestCloneContinuesIdentically(t *testing.T) {
	w := newWorld()
	for name, gen := range generators {
		wl := gen(w, 3)
		draw(wl, 3000)
		c := wl.clone()
		if a, b := draw(wl, 3000), draw(c, 3000); a != b {
			t.Errorf("%s: clone diverged from the original", name)
		}
	}
}

func TestRotationNeverRepeatsAClient(t *testing.T) {
	g := newRotation(newWorld(), 5, simtime.Epoch)
	seen := map[string]bool{}
	for i := 0; i < 200000; i++ {
		s := g.next().sessions[0]
		if seen[s.ip] || seen[s.sender] {
			t.Fatalf("session %d repeats %s or %s", i, s.ip, s.sender)
		}
		seen[s.ip], seen[s.sender] = true, true
	}
}
