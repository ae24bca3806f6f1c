package wire

import (
	"testing"
	"time"
)

func TestClockPrefersMinRTT(t *testing.T) {
	var c clockFilter
	if e := c.estimate(); e.OK || e.RTTNs != -1 {
		t.Fatalf("empty estimate = %+v, want no sample and RTT -1", e)
	}
	at := time.Now()
	c.sample(at, 500, -1) // one-way Hello: placeholder only
	if e := c.estimate(); !e.OK || e.OffsetNs != 500 || e.RTTNs != -1 {
		t.Fatalf("after one-way sample: %+v", e)
	}
	c.sample(at, 120, 90_000) // first round trip beats any one-way
	c.sample(at, 999, 250_000)
	c.sample(at, 100, 40_000) // tightest round trip wins
	c.sample(at, 777, 60_000)
	c.sample(at, 300, -1) // a later Hello does not displace a round trip
	if e := c.estimate(); !e.OK || e.OffsetNs != 100 || e.RTTNs != 40_000 {
		t.Errorf("estimate = %+v; want offset 100 and RTT 40000 from the 40us sample", e)
	}
}

// TestClockDrift: the drift is the offset change between the first and
// last round trip over the local time between them; one-way samples
// and a single round trip give none.
func TestClockDrift(t *testing.T) {
	at := time.Now()
	for _, tc := range []struct {
		name      string
		lastOff   int64
		wantDrift int64
	}{
		{"peer gains", 1_100, 1_000},
		{"peer loses", -900, -1_000},
	} {
		var c clockFilter
		c.sample(at.Add(-time.Second), 7_000, -1)
		c.sample(at, 100, 50_000)
		if e := c.estimate(); e.DriftPPB != 0 {
			t.Fatalf("%s: drift %d from one round trip, want 0", tc.name, e.DriftPPB)
		}
		c.sample(at.Add(time.Second), tc.lastOff, 60_000)
		if e := c.estimate(); e.DriftPPB != tc.wantDrift {
			t.Errorf("%s: DriftPPB = %d, want %d", tc.name, e.DriftPPB, tc.wantDrift)
		}
	}
}
