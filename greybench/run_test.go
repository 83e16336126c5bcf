package main

import (
	"path/filepath"
	"testing"

	"repro/internal/simtime"
)

// TestGatePasses runs every workload for a second of measurement and
// requires the correctness gate to pass: no failed session, the SMTP
// path's digest equal to the direct replay's, and recovery reproducing
// the live counts.
func TestGatePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark pipeline")
	}
	for name := range specs {
		for _, trace := range []int{0, 1} {
			res, err := run(opts{workload: name, seed: 2, seconds: 1, trace: trace, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) == 0 {
				t.Errorf("%s trace=%d: no metrics", name, trace)
			}
		}
	}
}

// TestSameSeedSameDigest checks that the inputs and the verdicts are a
// function of the seed alone: replaying the same stretch of traffic
// from two preps of one seed yields the same digest, while another seed
// does not. (Checkpoint bytes differ between preps: the snapshot
// encodes maps in iteration order.)
func TestSameSeedSameDigest(t *testing.T) {
	w := newWorld()
	digestOf := func(name string, seed int64) digest {
		dir := t.TempDir()
		clock := simtime.NewSim(simtime.Epoch)
		st, err := prepare(name, w, seed, filepath.Join(dir, "pristine"), clock)
		if err != nil {
			t.Fatal(err)
		}
		st.gcEvery = gcEvery
		dg, err := replay(w, filepath.Join(dir, "pristine"), filepath.Join(dir, "replay"), st, clock.Now(), []int{300, 300})
		if err != nil {
			t.Fatal(err)
		}
		return dg
	}
	for _, name := range []string{"probe", "rotation", "mixed"} {
		if name == "mixed" && testing.Short() {
			continue
		}
		a, b, c := digestOf(name, 4), digestOf(name, 4), digestOf(name, 5)
		if a != b {
			t.Errorf("%s: seed 4 twice gave digests %x and %x", name, a.h, b.h)
		}
		if a == c {
			t.Errorf("%s: seeds 4 and 5 gave the same digest", name)
		}
	}
}
