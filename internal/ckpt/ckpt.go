// Package ckpt drives coordinated, world-wide checkpoint/restart of a
// running world's user state: RMA windows, HLS scope variables, and
// arbitrary per-rank application slices.
//
// The model is classic blocking coordinated checkpointing taken at
// collective boundaries (the only points where the paper's runtime has
// a world-consistent cut anyway):
//
//	Checkpoint(t)   — collective over the world. The ranks agree on the
//	                  next generation number (rank-0-led Bcast), each
//	                  rank serializes its registered sources into a
//	                  checksummed per-rank payload file in a staging
//	                  directory, a Gather carries every payload's size
//	                  and checksum to rank 0, and rank 0 commits by
//	                  writing the manifest and atomically renaming
//	                  staging-<g> to gen-<g>. Either every rank sees the
//	                  generation commit or none does: a crash anywhere
//	                  before the rename leaves only an ignorable staging
//	                  directory, and a rank failure mid-protocol surfaces
//	                  as the usual ULFM typed error from the collective.
//
//	Restore(t)      — collective. Rank 0 scans the directory for the
//	                  newest *fully valid* generation (manifest parses,
//	                  world size matches, every rank payload present
//	                  with matching size and checksum), skipping — and
//	                  reporting, never silently loading — torn or
//	                  partial generations; the choice is Bcast to the
//	                  world and every rank rehydrates its sources from
//	                  its payload.
//
// Payload files are self-validating (magic, version, trailing CRC32-C)
// and generation commit is atomic-rename, so the directory can be
// inspected offline (cmd/hlsckpt, Inspect) and survives kill -9 at any
// instant: the worst case is losing the in-flight generation.
//
// Sources must be registered in the same order with the same names on
// every rank, before the first Checkpoint/Restore. Registration is
// idempotent by name, so the natural pattern — every task registering
// after collectively creating its windows/vars — is safe.
package ckpt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hls/internal/mpi"
	"hls/internal/trace"
)

// ErrNoCheckpoint is returned by Restore when the directory holds no
// valid generation at all.
var ErrNoCheckpoint = errors.New("ckpt: no valid checkpoint generation")

// Source is one unit of per-rank state included in every checkpoint.
// Save and Load run on each rank's own task, so implementations address
// rank-local state through t (e.g. Window.Local(t), Var.Slice(t)).
type Source interface {
	// CkptName keys the source's record in the payload; it must be
	// unique within a Coordinator and stable across runs.
	CkptName() string
	Save(t *mpi.Task) ([]byte, error)
	Load(t *mpi.Task, data []byte) error
}

// Config configures a Coordinator.
type Config struct {
	// Dir is the checkpoint directory (shared by all ranks; in a
	// multi-process world it must be a shared filesystem).
	Dir string
	// Keep is how many committed generations to retain (older ones are
	// pruned after each successful checkpoint). 0 means DefaultKeep.
	Keep int
	// Trace, when set, receives each rank's "checkpoint/gen-N" and
	// "restore/gen-N" slice (cat "ckpt", arg "generation").
	Trace *trace.Recorder
}

// DefaultKeep retains the last three committed generations: the newest,
// plus cover for a generation torn by a crash mid-write and one more
// for operator error.
const DefaultKeep = 3

// Coordinator owns the source registry and the generation counter. One
// Coordinator is shared by all tasks of a world (its methods are
// collective); create a fresh one per world incarnation — it re-scans
// the directory on first use.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	sources []Source
	byName  map[string]int
	scanned bool
	nextGen uint64 // rank 0 only: next generation to write

	ckpt, rest opStats
	skipped    atomic.Int64
}

// Stats counts a Coordinator's outcomes. Each rank's finished
// Checkpoint or Restore counts once, with that rank's payload bytes and
// wall time; a Restore that finds no valid generation counts nothing.
// GenerationsSkipped counts the invalid generations rank 0's restore
// scans passed over.
type Stats struct {
	Checkpoints, CheckpointErrors int64
	Restores, RestoreErrors       int64
	GenerationsSkipped            int64
	BytesSaved, BytesRestored     int64
	CheckpointNs, RestoreNs       int64 // summed over successful operations
	// LastGeneration is the last committed generation and
	// RestoredGeneration the last restored one (0 = none yet).
	LastGeneration, RestoredGeneration uint64
}

// Stats returns the outcomes so far. It may be called at any time.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Checkpoints: c.ckpt.ok.Load(), CheckpointErrors: c.ckpt.errs.Load(),
		Restores: c.rest.ok.Load(), RestoreErrors: c.rest.errs.Load(),
		BytesSaved: c.ckpt.bytes.Load(), BytesRestored: c.rest.bytes.Load(),
		CheckpointNs: c.ckpt.ns.Load(), RestoreNs: c.rest.ns.Load(),
		LastGeneration: c.ckpt.gen.Load(), RestoredGeneration: c.rest.gen.Load(),
		GenerationsSkipped: c.skipped.Load(),
	}
}

// opStats counts one operation's outcomes.
type opStats struct {
	ok, errs, bytes, ns atomic.Int64
	gen                 atomic.Uint64 // of the last success
}

// done counts rank's op ("checkpoint" or "restore") of generation gen,
// started at start, and writes its slice to the recorder, if any.
func (c *Coordinator) done(o *opStats, op string, rank int, gen uint64, bytes int64, start time.Time, err error) {
	d := time.Since(start).Nanoseconds()
	if err != nil {
		o.errs.Add(1)
	} else {
		o.ok.Add(1)
		o.bytes.Add(bytes)
		o.ns.Add(d)
		o.gen.Store(gen)
	}
	if rec := c.cfg.Trace; rec != nil {
		end := rec.NowNs()
		rec.SliceNs(rank, fmt.Sprintf("%s/gen-%d", op, gen), "ckpt", end-d, end, map[string]any{"generation": gen})
	}
}

// New creates a Coordinator over cfg.Dir.
func New(cfg Config) *Coordinator {
	if cfg.Keep <= 0 {
		cfg.Keep = DefaultKeep
	}
	return &Coordinator{cfg: cfg, byName: make(map[string]int)}
}

// Register adds sources to every future checkpoint. Idempotent by name
// (a re-registration under an existing name replaces that source), so
// every task may register after collectively creating its state.
func (c *Coordinator) Register(srcs ...Source) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range srcs {
		if i, ok := c.byName[s.CkptName()]; ok {
			c.sources[i] = s
			continue
		}
		c.byName[s.CkptName()] = len(c.sources)
		c.sources = append(c.sources, s)
	}
}

// snapshotSources returns a stable copy of the registry for one
// collective operation.
func (c *Coordinator) snapshotSources() []Source {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Source(nil), c.sources...)
}

// convertPanic converts p, a recovered panic, into an ordinary error
// return when it is one of the runtime's typed failures (dead rank,
// cancellation, fatal MPI error mid-collective), so a checkpoint
// interrupted by a dying rank reports instead of unwinding the whole
// task. Anything else keeps panicking.
func convertPanic(p any, err *error) {
	switch e := p.(type) {
	case nil:
	case *mpi.DeadRankError:
		*err = e
	case *mpi.CancelledError:
		*err = e
	case *mpi.Error:
		*err = e
	default:
		panic(p)
	}
}

// fmtGen names a committed generation directory.
func fmtGen(g uint64) string { return fmt.Sprintf("gen-%06d", g) }

// fmtStaging names the in-flight staging directory for generation g.
func fmtStaging(g uint64) string { return fmt.Sprintf("staging-%06d", g) }
