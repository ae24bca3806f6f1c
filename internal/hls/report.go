package hls

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hls/internal/topology"
)

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

// instanceCounter lets the registry query Var[T] instances without
// knowing T.
type instanceCounter interface {
	Name() string
	Scope() topology.Scope
	countInstances() int
	bytesPerInstance() int64
	demotionStats() (int, int64)
}

func (v *Var[T]) countInstances() int         { return v.Instances() }
func (v *Var[T]) bytesPerInstance() int64     { return v.accountBytes }
func (v *Var[T]) demotionStats() (int, int64) { return v.Demotions() }

// Report returns the inventory of declared variables, sorted by name.
func (r *Registry) Report() []VarInfo {
	// Copy under the lock, then read the vars unlocked: they take their
	// own locks.
	r.mu.Lock()
	vars := append([]instanceCounter(nil), r.declared...)
	r.mu.Unlock()
	out := make([]VarInfo, 0, len(vars))
	for _, v := range vars {
		s := v.Scope()
		dem, extra := v.demotionStats()
		out = append(out, VarInfo{
			Name:              v.Name(),
			Scope:             s,
			Instances:         v.countInstances(),
			MaxInstances:      r.machine.InstanceCount(s),
			BytesPerInstance:  v.bytesPerInstance(),
			SavingFactor:      r.machine.ThreadsPerInstance(s),
			Demotions:         dem,
			DemotedExtraBytes: extra,
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
