package main

import (
	"fmt"
	"math"
	"reflect"

	"genlink/internal/entity"
	"genlink/internal/rule"
)

// scoreTolerance is how far a served score may sit from the interpreted
// tree walk (rule.Rule.Evaluate) of the same pair.
const scoreTolerance = 1e-9

// checkMatch verifies one /match answer apart from the service: every
// link names a stored entity other than the probe, its score equals the
// tree-walk score of the pair within scoreTolerance and reaches the
// threshold, the links are ordered by (score desc, id asc) without
// duplicates, and there are at most k of them.
func checkMatch(r *rule.Rule, stored map[string]*entity.Entity, threshold float64, k int, probe *entity.Entity, links []matchLink) error {
	if k > 0 && len(links) > k {
		return fmt.Errorf("probe %s: %d links for k=%d", probe.ID, len(links), k)
	}
	seen := make(map[string]bool, len(links))
	for i, l := range links {
		if seen[l.ID] {
			return fmt.Errorf("probe %s: duplicate link %s", probe.ID, l.ID)
		}
		seen[l.ID] = true
		if l.ID == probe.ID {
			return fmt.Errorf("probe %s: linked to its own record", probe.ID)
		}
		b := stored[l.ID]
		if b == nil {
			return fmt.Errorf("probe %s: link to unknown entity %s", probe.ID, l.ID)
		}
		if want := r.Evaluate(probe, b); math.Abs(want-l.Score) > scoreTolerance {
			return fmt.Errorf("probe %s: link %s scored %.17g, tree walk gives %.17g", probe.ID, l.ID, l.Score, want)
		}
		if l.Score < threshold {
			return fmt.Errorf("probe %s: link %s scored %v below the threshold %v", probe.ID, l.ID, l.Score, threshold)
		}
		if i > 0 {
			p := links[i-1]
			if p.Score < l.Score || (p.Score == l.Score && p.ID >= l.ID) {
				return fmt.Errorf("probe %s: links %d and %d out of (score desc, id asc) order", probe.ID, i-1, i)
			}
		}
	}
	return nil
}

// recallCounter tallies, over probes with positive reference links, how
// many linked records the top-k answers contain.
type recallCounter struct {
	linked map[string][]string // probe ID → IDs it has positive links to
	hits   int
	total  int
}

// newRecallCounter indexes the positive reference links in both
// directions, since a probe may appear on either side of a pair.
func newRecallCounter(positive []entity.Pair) *recallCounter {
	rc := &recallCounter{linked: make(map[string][]string)}
	for _, p := range positive {
		rc.linked[p.A.ID] = append(rc.linked[p.A.ID], p.B.ID)
		if p.A.ID != p.B.ID {
			rc.linked[p.B.ID] = append(rc.linked[p.B.ID], p.A.ID)
		}
	}
	return rc
}

func (rc *recallCounter) observe(probeID string, links []matchLink) {
	want := rc.linked[probeID]
	if len(want) == 0 {
		return
	}
	got := make(map[string]bool, len(links))
	for _, l := range links {
		got[l.ID] = true
	}
	for _, id := range want {
		rc.total++
		if got[id] {
			rc.hits++
		}
	}
}

func (rc *recallCounter) recall() float64 {
	if rc.total == 0 {
		return math.NaN()
	}
	return float64(rc.hits) / float64(rc.total)
}

// checkStored verifies that a read-back entity is the last acknowledged
// version of the id (nil got means the service does not know the id).
func checkStored(id string, want, got *entity.Entity) error {
	if got == nil {
		return fmt.Errorf("entity %s: acknowledged but not found", id)
	}
	if got.ID != id || !reflect.DeepEqual(normalize(want.Properties), normalize(got.Properties)) {
		return fmt.Errorf("entity %s: read back a different version than the last acknowledged one", id)
	}
	return nil
}

// normalize maps an empty property map to nil so that a decoded entity
// without properties equals its source.
func normalize(p map[string][]string) map[string][]string {
	if len(p) == 0 {
		return nil
	}
	return p
}

// sameLinks reports whether two answers are identical, ids and scores.
func sameLinks(a, b []matchLink) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
