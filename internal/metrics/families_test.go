package metrics

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestFamiliesGolden pins every metric family the five adapters export
// over one registry — its name, TYPE and label keys — against
// testdata/families.golden.
func TestFamiliesGolden(t *testing.T) {
	r := New(1)
	NewMPIAdapter(r)
	NewWireAdapter(r, 2)
	h := NewHLSAdapter(r)
	h.Arrive("barrier/node:0/0", 0) // directive families register on first use
	h.Depart("barrier/node:0/0", 0)
	NewRMAAdapter(r)
	NewCkptAdapter(r)

	want, err := os.ReadFile("testdata/families.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := familyLines(t, r); got != string(want) {
		t.Errorf("metric families differ from testdata/families.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMPIFamilyNames pins the mpi_* families an MPI adapter exports on
// its own registry: exactly the mpi_* lines of testdata/families.golden.
func TestMPIFamilyNames(t *testing.T) {
	r := New(1)
	NewMPIAdapter(r)
	checkFamilies(t, r, "mpi_")
}

// TestWireFamilyNames pins the wire_* families: the traffic families
// pulled from wire.Stats, then the clock ones pulled from its Clock.
func TestWireFamilyNames(t *testing.T) {
	r := New(1)
	NewWireAdapter(r, 2)
	checkFamilies(t, r, "wire_")
}

// TestHLSFamilyNames pins the hls_* families: those pulled from
// hls.Registry.Stats and the directive families fed by Arrive/Depart.
func TestHLSFamilyNames(t *testing.T) {
	r := New(1)
	a := NewHLSAdapter(r)
	a.Arrive("barrier/node:0/0", 0)
	a.Depart("barrier/node:0/0", 0)
	checkFamilies(t, r, "hls_")
}

// checkFamilies compares the families of r, which holds one adapter's
// families only, with the golden lines whose names start with prefix.
func checkFamilies(t *testing.T, r *Registry, prefix string) {
	t.Helper()
	golden, err := os.ReadFile("testdata/families.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if strings.HasPrefix(line, prefix) {
			want.WriteString(line)
		}
	}
	if want.Len() == 0 {
		t.Fatalf("no %s families in testdata/families.golden", prefix)
	}
	if got := familyLines(t, r); got != want.String() {
		t.Errorf("%s families differ from testdata/families.golden\n--- got ---\n%s--- want ---\n%s", prefix, got, want.String())
	}
}

// familyLines renders one "name type {label,keys}" line per family, in
// exposition order, failing when a family's series disagree on their
// label keys.
func familyLines(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	keysOf := make(map[string]string)
	add := func(name, kind string, labels map[string]string) {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ks := ""
		if len(keys) > 0 {
			ks = " {" + strings.Join(keys, ",") + "}"
		}
		if prev, ok := keysOf[name]; ok {
			if prev != ks {
				t.Errorf("%s: series with label keys%s and%s", name, prev, ks)
			}
			return
		}
		keysOf[name] = ks
		fmt.Fprintf(&b, "%s %s%s\n", name, kind, ks)
	}
	snap := r.Snapshot()
	for _, c := range snap.Counters {
		add(c.Name, "counter", c.Labels)
	}
	for _, g := range snap.Gauges {
		add(g.Name, "gauge", g.Labels)
	}
	for _, h := range snap.Histograms {
		add(h.Name, "histogram", h.Labels)
	}
	return b.String()
}
