package hls

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hls/internal/topology"
)

// Stats is a snapshot of the counts a registry keeps about itself: how
// single directives split tasks into one executor and many waiters
// (§IV-B), what lazy per-instance allocation saved (§IV-A), and what
// degradation to private copies cost. Every field only grows.
// internal/metrics exports it by pulling, not by being told per event.
type Stats struct {
	// SinglesExecuted / SinglesSkipped count single and single-nowait
	// completions, per task: the one that ran the block, and the others
	// (waited at a single, skipped a nowait). A demoted instance runs
	// the block on every task, so all of them count as executed.
	SinglesExecuted, SinglesSkipped int64
	// InstanceAllocs counts shared scope-instance copies allocated
	// lazily; SharedBytes is what they hold (accounted bytes), and
	// DuplicateBytesAvoided what one private copy per task would have
	// added beyond them.
	InstanceAllocs, SharedBytes, DuplicateBytesAvoided int64
	// Demotions counts instances degraded to private per-task copies,
	// DemotedExtraBytes the footprint that costs over sharing, and
	// DemotionRecovery the summed time from each one's first failed
	// allocation attempt to the demotion decision.
	Demotions, DemotedExtraBytes int64
	DemotionRecovery             time.Duration
}

// Stats sums the registry's counts over every task and declared
// variable. Safe to call while directives run.
func (r *Registry) Stats() Stats {
	var s Stats
	for i := range r.singles {
		s.SinglesExecuted += r.singles[i].executed.Load()
		s.SinglesSkipped += r.singles[i].skipped.Load()
	}
	for _, v := range r.declaredVars() {
		v.addStats(&s)
	}
	return s
}

// declaredVars copies the declared variables under the lock, so callers
// read them unlocked: each variable takes its own lock.
func (r *Registry) declaredVars() []instanceCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]instanceCounter(nil), r.declared...)
}

// VarInfo describes one declared HLS variable for inventory reports — the
// queryable version of figure 2's memory layout.
type VarInfo struct {
	Name  string
	Scope topology.Scope
	// Instances is the number of scope-instance copies materialized so
	// far (lazy allocation: untouched instances hold no memory).
	Instances int
	// MaxInstances is the machine's instance count for the scope.
	MaxInstances int
	// BytesPerInstance is the accounted per-copy size.
	BytesPerInstance int64
	// SavingFactor is tasks-per-instance: how many private copies one
	// shared copy replaces.
	SavingFactor int
	// Demotions counts instances degraded to private per-task copies
	// after allocation failures; DemotedExtraBytes is the footprint the
	// duplication costs over sharing (the delta hlsmem reports).
	Demotions         int
	DemotedExtraBytes int64
}

// instanceCounter lets the registry reach Var[T] instances without knowing T.
type instanceCounter interface {
	Name() string
	Scope() topology.Scope
	bytesPerInstance() int64
	addStats(*Stats)
	forget(rank int)
}

func (v *Var[T]) bytesPerInstance() int64 { return v.accountBytes }

func (v *Var[T]) addStats(s *Stats) {
	v.instMu.Lock()
	defer v.instMu.Unlock()
	n := int64(len(v.instances))
	s.InstanceAllocs += n
	s.SharedBytes += n * v.accountBytes
	s.DuplicateBytesAvoided += v.savedBytes
	s.Demotions += int64(v.demotions)
	s.DemotedExtraBytes += v.extraBytes
	s.DemotionRecovery += v.recovery
}

// Report returns the inventory of declared variables, sorted by name.
func (r *Registry) Report() []VarInfo {
	vars := r.declaredVars()
	out := make([]VarInfo, 0, len(vars))
	for _, v := range vars {
		s := v.Scope()
		var st Stats
		v.addStats(&st)
		out = append(out, VarInfo{
			Name:              v.Name(),
			Scope:             s,
			Instances:         int(st.InstanceAllocs),
			MaxInstances:      r.machine.InstanceCount(s),
			BytesPerInstance:  v.bytesPerInstance(),
			SavingFactor:      r.machine.ThreadsPerInstance(s),
			Demotions:         int(st.Demotions),
			DemotedExtraBytes: st.DemotedExtraBytes,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteReport renders the inventory as a table.
func (r *Registry) WriteReport(w io.Writer) {
	infos := r.Report()
	fmt.Fprintf(w, "%-20s %-16s %12s %16s %14s\n",
		"variable", "scope", "instances", "bytes/instance", "saving factor")
	for _, in := range infos {
		fmt.Fprintf(w, "%-20s %-16s %7d/%4d %16d %13dx\n",
			in.Name, strings.ReplaceAll(in.Scope.String(), " ", ""),
			in.Instances, in.MaxInstances, in.BytesPerInstance, in.SavingFactor)
	}
}
