package main

import (
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMirrorsGreylistdDefaults fails when a greylistd flag default that
// the benchmark's wiring copies changes, so the benchmark keeps pricing
// the configuration greylistd ships with.
func TestMirrorsGreylistdDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/greylistd")
	}
	out, _ := exec.Command("go", "run", "repro/cmd/greylistd", "-h").CombinedOutput()
	defaults := map[string]string{}
	flagLine := regexp.MustCompile(`^  -([a-z-]+)`)
	def := regexp.MustCompile(`\(default (.+)\)$`)
	var name string
	for _, line := range strings.Split(string(out), "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			name = m[1]
		}
		if m := def.FindStringSubmatch(line); m != nil && name != "" {
			defaults[name] = m[1]
		}
	}
	if len(defaults) == 0 {
		t.Fatalf("no defaults parsed from greylistd -h:\n%s", out)
	}
	want := map[string]string{
		"threshold":         threshold.String(),
		"retry-window":      retryWindow.String(),
		"max-age":           maxAge.String(),
		"auto-whitelist":    strconv.Itoa(autoWhitelist),
		"rcpt-batch":        strconv.Itoa(rcptBatch),
		"wal-sync":          strconv.Quote(walSync),
		"wal-sync-interval": walSyncInterval.String(),
		"wal-compact-every": strconv.Itoa(walCompactEvery),
		"gc":                gcEvery.String(),
		"obs-window":        obsWindow.String(),
		"obs-windows":       strconv.Itoa(obsWindows),
		"trace-ring":        strconv.Itoa(traceRing),
		"hostname":          strconv.Quote(hostname),
		"shards":            "1",
	}
	for flag, v := range want {
		if got, ok := defaults[flag]; !ok {
			t.Errorf("greylistd -%s: no default found", flag)
		} else if got != v {
			t.Errorf("greylistd -%s defaults to %s, the benchmark wires %s", flag, got, v)
		}
	}
}
