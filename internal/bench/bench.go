// Package bench is the experiment harness: one runner per table/figure of
// the paper's evaluation (§V), each regenerating the same rows or series
// the paper reports, plus the gated experiments (sync, coll, recover,
// halo) whose results are Snapshots with acceptance checks.
// cmd/hlsbench drives the runners from the command line. The package's
// tests run the quick profile and pin Table I and Figure 3 against
// testdata/{table1,fig3}.golden; WriteSnapshot, ReadSnapshot and Compare
// are the one path between a gated run and its committed baseline.
//
// Every runner has a Quick profile (seconds, used by the tests) and a
// Full profile (minutes, the paper-shaped sweep). Data sizes are scaled
// per DESIGN.md §6; memory rows are accounted directly in paper-scale
// bytes so the tables read in the paper's MB.
package bench

import (
	"fmt"
	"io"
)

// Profile selects experiment effort.
type Profile int

const (
	// Quick shrinks workloads to run in seconds.
	Quick Profile = iota
	// Full runs the paper-shaped sweep.
	Full
)

// String names the profile.
func (p Profile) String() string {
	if p == Full {
		return "full"
	}
	return "quick"
}

// fprintf writes to w, ignoring errors (harness output only).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
