package hls

import (
	"errors"
	"fmt"
	"time"

	"hls/internal/mpi"
	"hls/internal/topology"
)

// MigrationBlockedError reports a refused MPC_Move: the migrating task's
// directive counters disagree with the destination scope instance's
// (§IV-A's migration condition). It is transient whenever the program
// keeps synchronizing — retrying once the counts align succeeds, which
// is what MigrateWhenQuiescent automates.
type MigrationBlockedError struct {
	Rank  int
	Scope topology.Scope
	// Kind distinguishes the mismatched counter: "directive" for
	// barrier/single counts, "nowait" for single-nowait counts.
	Kind      string
	DestInst  int
	TaskCount int64
	DestCount int64
}

func (e *MigrationBlockedError) Error() string {
	return fmt.Sprintf("hls: migrate rank %d: %v %s count mismatch (task has %d, destination instance %d has %d)",
		e.Rank, e.Scope, e.Kind, e.TaskCount, e.DestInst, e.DestCount)
}

// Migrate moves task t to hardware thread newThread — the MPC_Move
// operation. Per §IV-A, a task may only migrate if it has encountered the
// same number of single and barrier directives as the destination scope
// instances it is moving into; otherwise the move is refused with an
// error. HLS variables are bound to the architecture and do not move: the
// task resolves the destination's copies afterwards, as Migrate clears
// its cached entry in every declared variable.
//
// Migration must be quiescent: no task of the affected scope instances may
// be inside an HLS directive, and no thread of t inside Slice, while
// Migrate runs on t. This mirrors MPC, where the migration check itself
// enforces directive-count agreement.
func (r *Registry) Migrate(t *mpi.Task, newThread int) error {
	rank := t.Rank()
	oldThread := r.pin.Thread(rank)
	if newThread == oldThread {
		return nil
	}
	if newThread < 0 || newThread >= r.machine.TotalThreads() {
		return fmt.Errorf("hls: migrate rank %d: thread %d out of range [0,%d)",
			rank, newThread, r.machine.TotalThreads())
	}

	changed := make([]topology.Scope, 0, 4)
	for _, s := range r.allScopes() {
		if r.machine.ScopeInstance(oldThread, s) != r.machine.ScopeInstance(newThread, s) {
			changed = append(changed, s)
		}
	}

	// Check directive counters against every destination instance.
	r.mu.Lock()
	for _, s := range changed {
		lk := scopeLK{s.Kind, s.Level}
		destKey := scopeKey{lk, r.machine.ScopeInstance(newThread, s)}
		var destCount int64
		if c, ok := r.instCounts[destKey]; ok {
			destCount = c.Load()
		}
		if my := r.taskCounts[rank][lk]; my != destCount {
			r.mu.Unlock()
			return &MigrationBlockedError{
				Rank: rank, Scope: s, Kind: "directive",
				DestInst: destKey.inst, TaskCount: my, DestCount: destCount,
			}
		}
		var destNowait int64
		if ns, ok := r.nowaits[destKey]; ok {
			ns.mu.Lock()
			destNowait = ns.done
			ns.mu.Unlock()
		}
		if my := r.taskCounts[rank][nowaitLK(s)]; my != destNowait {
			r.mu.Unlock()
			return &MigrationBlockedError{
				Rank: rank, Scope: s, Kind: "nowait",
				DestInst: destKey.inst, TaskCount: my, DestCount: destNowait,
			}
		}
	}

	// Commit: re-pin, invalidate the task's variable cache, rebuild the
	// barriers of every affected instance from the new pinning.
	r.pin.Move(rank, newThread)
	for _, v := range r.declared {
		v.forget(rank)
	}
	for _, s := range changed {
		lk := scopeLK{s.Kind, s.Level}
		for _, inst := range []int{
			r.machine.ScopeInstance(oldThread, s),
			r.machine.ScopeInstance(newThread, s),
		} {
			key := scopeKey{lk, inst}
			if _, ok := r.barriers[key]; !ok {
				continue
			}
			if len(r.pin.RanksInInstance(s, inst)) == 0 {
				delete(r.barriers, key)
			} else {
				r.barriers[key] = r.buildBarrier(s, key)
			}
		}
	}
	r.mu.Unlock()
	return nil
}

// MigrateWhenQuiescent retries Migrate while it is blocked by directive
// count disagreement, sleeping backoff (doubling, capped at 100ms)
// between attempts. The caller's program must keep making progress on
// the destination instance's directives for the counts to converge;
// attempts bounds how long to keep trying. Errors other than
// *MigrationBlockedError (invalid thread, etc.) return immediately.
func (r *Registry) MigrateWhenQuiescent(t *mpi.Task, newThread int, attempts int, backoff time.Duration) error {
	var err error
	for i := 0; i < attempts; i++ {
		err = r.Migrate(t, newThread)
		var blocked *MigrationBlockedError
		if err == nil || !errors.As(err, &blocked) {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > maxAllocBackoff {
			backoff = maxAllocBackoff
		}
	}
	return err
}

// allScopes enumerates every scope of the machine, narrow to wide.
func (r *Registry) allScopes() []topology.Scope {
	scopes := []topology.Scope{topology.Core}
	for l := 1; l <= r.machine.CacheLevels(); l++ {
		scopes = append(scopes, topology.Cache(l))
	}
	scopes = append(scopes, topology.NUMA, topology.Node)
	return scopes
}
