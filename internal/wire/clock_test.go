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
// last round trip over the local time between them; one-way samples, a
// single round trip and round trips less than driftMinSpan apart (a
// probe burst) give none.
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
		c.sample(at.Add(100*time.Microsecond), 100+tc.lastOff, 60_000)
		if e := c.estimate(); e.DriftPPB != 0 {
			t.Fatalf("%s: drift %d from a 100us span, want 0", tc.name, e.DriftPPB)
		}
		c.sample(at.Add(time.Second), tc.lastOff, 60_000)
		if e := c.estimate(); e.DriftPPB != tc.wantDrift {
			t.Errorf("%s: DriftPPB = %d, want %d", tc.name, e.DriftPPB, tc.wantDrift)
		}
	}
}

// TestClockBurstAtHandshake: with probes on, each pong after a
// handshake triggers the next probe until the filter holds clockBurst
// round trips; after that probes wait for PingInterval (an hour here).
func TestClockBurstAtHandshake(t *testing.T) {
	tr0, tr1, _, s1 := newPair(t, Config{PingInterval: time.Hour}, Config{PingInterval: time.Hour})
	if err := tr0.Send(1, &Header{Type: TypeEager}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return s1.count() == 1 })
	rounds := func(tr *TCP, peer int) int {
		c := &tr.peers[peer].clock
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.rounds
	}
	waitFor(t, "the probe burst", func() bool { return rounds(tr0, 1) == clockBurst && rounds(tr1, 0) == clockBurst })
	time.Sleep(20 * time.Millisecond)
	if r0, r1 := rounds(tr0, 1), rounds(tr1, 0); r0 != clockBurst || r1 != clockBurst {
		t.Fatalf("round trips after the burst: %d and %d, want %d each", r0, r1, clockBurst)
	}
	if e := tr0.Clock(1); !e.OK || e.RTTNs <= 0 {
		t.Fatalf("estimate after the burst = %+v, want a round trip", e)
	}
}
