package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs in a VM whose vCPUs the hypervisor shares with
// other tenants: /proc/stat shows 2% of CPU time stolen in one minute and
// 30% in the next, which moves wall-clock figures by as much between two
// runs of the same commit. Every timed section is therefore measured with
// a stealClock and reported as unstolen time, wall × (1 − s), where s is
// the share of the machine's CPU time stolen during the section: to
// first order, the time the section would have taken on vCPUs that ran
// throughout. The raw wall times are printed beside it.

// stealClock times one section and the CPU time stolen during it.
type stealClock struct {
	t0           time.Time
	steal, total float64
}

func startClock() (stealClock, error) {
	steal, total, err := readSteal()
	return stealClock{t0: time.Now(), steal: steal, total: total}, err
}

// stop returns the section's wall time and stolen share.
func (c stealClock) stop() (wall time.Duration, stolen float64, err error) {
	wall = time.Since(c.t0)
	steal, total, err := readSteal()
	if err != nil {
		return wall, 0, err
	}
	if dt := total - c.total; dt > 0 {
		stolen = (steal - c.steal) / dt
	}
	return wall, stolen, nil
}

// unstolen is wall × (1 − stolen) in the unit of wall.
func unstolen(wall, stolen float64) float64 { return wall * (1 - stolen) }

// readSteal returns the machine's stolen and total CPU ticks.
func readSteal() (steal, total float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range f[1:9] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total, nil
}
