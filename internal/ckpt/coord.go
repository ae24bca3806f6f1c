package ckpt

// coord.go — the collective protocol: Checkpoint and Restore.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hls/internal/mpi"
)

// Checkpoint takes one coordinated, world-wide snapshot of every
// registered source and commits it as a new generation. Collective
// over the world communicator; returns the committed generation
// number. On error (including a rank dying mid-protocol, surfaced as
// the usual typed errors) no generation is committed — at worst a
// staging directory is left behind, which every scan ignores and the
// next checkpoint of the same generation number overwrites.
func (c *Coordinator) Checkpoint(t *mpi.Task) (gen uint64, err error) {
	start := time.Now()
	me := t.Rank()
	var g uint64
	var bytes int64
	defer func() {
		convertPanic(recover(), &err)
		c.done(&c.ckpt, "checkpoint", me, g, bytes, start, err)
	}()

	// Rank 0 picks the generation; everyone learns it. The Bcast also
	// fences the cut: every rank has entered Checkpoint before any
	// writes state.
	if me == 0 {
		g = c.pickNextGen()
	}
	gb := []uint64{g}
	mpi.Bcast(t, nil, gb, 0)
	g = gb[0]

	// Rank 0 prepares a clean staging directory; the barrier keeps other
	// ranks from writing into it (or into a stale one) first.
	staging := filepath.Join(c.cfg.Dir, fmtStaging(g))
	prepOK := uint64(1)
	if me == 0 {
		if rerr := os.RemoveAll(staging); rerr != nil {
			prepOK = 0
		} else if rerr := os.MkdirAll(staging, 0o755); rerr != nil {
			prepOK = 0
		}
	}
	mpi.Barrier(t, nil)

	// Every rank serializes its sources into its own payload file.
	okFlag, crc := prepOK, uint32(0)
	var werr error
	if prepOK == 1 {
		bytes, crc, werr = c.writeRankPayload(t, staging)
		if werr != nil {
			okFlag = 0
		}
	}

	// Rank 0 gathers {ok, bytes, crc} from everyone and commits only if
	// every rank succeeded: manifest write + fsync, then atomic rename.
	size := sizeOfWorld(t)
	var recv []uint64
	if me == 0 {
		recv = make([]uint64, 3*size)
	}
	mpi.Gather(t, nil, []uint64{okFlag, uint64(bytes), uint64(crc)}, recv, 0)

	outcome := uint64(0)
	if me == 0 {
		outcome = 1
		m := Manifest{
			Version:         formatVersion,
			Generation:      g,
			NumRanks:        size,
			CreatedUnixNano: time.Now().UnixNano(),
			Sources:         c.sourceNames(),
		}
		for r := 0; r < size; r++ {
			if recv[3*r] == 0 {
				outcome = 0
				break
			}
			m.Ranks = append(m.Ranks, ManifestRank{
				Rank:  r,
				File:  rankFileName(r),
				Bytes: int64(recv[3*r+1]),
				CRC32: uint32(recv[3*r+2]),
			})
		}
		if outcome == 1 && c.commit(staging, g, &m) != nil {
			outcome = 0
		}
	}
	ob := []uint64{outcome}
	mpi.Bcast(t, nil, ob, 0)
	if ob[0] == 0 {
		if werr != nil {
			return g, fmt.Errorf("ckpt: generation %d aborted: %w", g, werr)
		}
		return g, fmt.Errorf("ckpt: generation %d aborted (a rank failed to write its payload)", g)
	}

	if me == 0 {
		c.prune(g)
	}
	mpi.Barrier(t, nil)
	return g, nil
}

// writeRankPayload saves every source and writes this rank's payload
// file into the staging directory.
func (c *Coordinator) writeRankPayload(t *mpi.Task, staging string) (bytes int64, crc uint32, err error) {
	srcs := c.snapshotSources()
	names := make([]string, len(srcs))
	datas := make([][]byte, len(srcs))
	for i, s := range srcs {
		names[i] = s.CkptName()
		d, serr := s.Save(t)
		if serr != nil {
			return 0, 0, fmt.Errorf("source %q: %w", names[i], serr)
		}
		datas[i] = d
	}
	b := encodePayload(t.Rank(), names, datas)
	path := filepath.Join(staging, rankFileName(t.Rank()))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	return int64(len(b)), payloadCRC(b), nil
}

// commit writes the manifest (fsync'd) into staging and atomically
// renames it to the committed generation name, fsyncing the parent so
// the rename itself is durable.
func (c *Coordinator) commit(staging string, g uint64, m *Manifest) error {
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	mf, err := os.OpenFile(filepath.Join(staging, manifestName), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := mf.Write(mb); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}
	final := filepath.Join(c.cfg.Dir, fmtGen(g))
	_ = os.RemoveAll(final) // a retried generation number replaces its leftovers
	if err := os.Rename(staging, final); err != nil {
		return err
	}
	return syncDir(c.cfg.Dir)
}

// prune removes committed generations older than the Keep newest, and
// any stale staging directories older than the one just committed.
func (c *Coordinator) prune(justCommitted uint64) {
	gens, err := listGens(c.cfg.Dir)
	if err != nil {
		return
	}
	committed := 0
	for _, gi := range gens {
		if gi.Staging {
			if gi.Gen < justCommitted {
				_ = os.RemoveAll(gi.Dir)
			}
			continue
		}
		committed++
		if committed > c.cfg.Keep {
			_ = os.RemoveAll(gi.Dir)
		}
	}
}

// RestoreInfo reports what Restore loaded.
type RestoreInfo struct {
	Gen      uint64        // the generation restored
	Bytes    int64         // this rank's payload bytes
	Skipped  int           // newer invalid generations passed over (world-agreed)
	Duration time.Duration // this rank's wall time in Restore
}

// Restore rehydrates every registered source from the newest fully
// valid generation, skipping (and counting in Stats, on rank 0) any
// torn or partial generation. Collective over the world
// communicator. Returns ErrNoCheckpoint when the directory holds no
// valid generation — every rank agrees, so the caller can fall through
// to a fresh start collectively.
func (c *Coordinator) Restore(t *mpi.Task) (info RestoreInfo, err error) {
	start := time.Now()
	me := t.Rank()
	size := sizeOfWorld(t)
	defer func() {
		convertPanic(recover(), &err)
		if info.Gen != 0 { // a generation was chosen
			info.Duration = time.Since(start)
			c.done(&c.rest, "restore", me, info.Gen, info.Bytes, start, err)
		}
	}()

	// Rank 0 scans; the world learns {generation, skipped} (gen 0 =
	// nothing valid; committed generations start at 1).
	var chosen, skipped uint64
	if me == 0 {
		gens, lerr := listGens(c.cfg.Dir)
		if lerr == nil {
			for i := range gens {
				validateGen(&gens[i], size)
				if gens[i].Valid {
					chosen = gens[i].Gen
					break
				}
				if !gens[i].Staging {
					skipped++
				}
				c.skipped.Add(1)
			}
		}
	}
	gb := []uint64{chosen, skipped}
	mpi.Bcast(t, nil, gb, 0)
	chosen, skipped = gb[0], gb[1]
	info.Skipped = int(skipped)
	if chosen == 0 {
		return info, ErrNoCheckpoint
	}
	info.Gen = chosen

	// Every rank loads its own payload; a Gather-led outcome vote keeps
	// the world agreed on success (one rank's read error aborts all).
	lerr := c.loadRankPayload(t, chosen, &info)
	okFlag := uint64(1)
	if lerr != nil {
		okFlag = 0
	}
	var recv []uint64
	if me == 0 {
		recv = make([]uint64, size)
	}
	mpi.Gather(t, nil, []uint64{okFlag}, recv, 0)
	outcome := uint64(1)
	if me == 0 {
		for _, ok := range recv {
			outcome &= ok
		}
	}
	ob := []uint64{outcome}
	mpi.Bcast(t, nil, ob, 0)
	if ob[0] == 0 {
		if lerr != nil {
			return info, fmt.Errorf("ckpt: restore of generation %d failed: %w", chosen, lerr)
		}
		return info, fmt.Errorf("ckpt: restore of generation %d failed on another rank", chosen)
	}
	mpi.Barrier(t, nil)
	return info, nil
}

// loadRankPayload reads, validates and applies this rank's payload of
// generation g.
func (c *Coordinator) loadRankPayload(t *mpi.Task, g uint64, info *RestoreInfo) error {
	path := filepath.Join(c.cfg.Dir, fmtGen(g), rankFileName(t.Rank()))
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rank, records, err := decodePayload(b)
	if err != nil {
		return err
	}
	if rank != t.Rank() {
		return fmt.Errorf("payload %s is rank %d's, not rank %d's", filepath.Base(path), rank, t.Rank())
	}
	info.Bytes = int64(len(b))
	for _, s := range c.snapshotSources() {
		data, ok := records[s.CkptName()]
		if !ok {
			// A source added since the checkpoint keeps its current
			// (typically initial) state; world-deterministic because the
			// registry is identical on every rank.
			continue
		}
		if err := s.Load(t, data); err != nil {
			return fmt.Errorf("source %q: %w", s.CkptName(), err)
		}
	}
	return nil
}

// pickNextGen (rank 0 only) returns the next generation number,
// scanning the directory once so restarts continue the sequence after
// the highest existing generation, committed or staged.
func (c *Coordinator) pickNextGen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.scanned {
		c.scanned = true
		c.nextGen = 1
		if gens, err := listGens(c.cfg.Dir); err == nil && len(gens) > 0 {
			c.nextGen = gens[0].Gen + 1
		}
	}
	g := c.nextGen
	c.nextGen++
	return g
}

func (c *Coordinator) sourceNames() []string {
	srcs := c.snapshotSources()
	names := make([]string, len(srcs))
	for i, s := range srcs {
		names[i] = s.CkptName()
	}
	return names
}

// sizeOfWorld returns the world communicator's size.
func sizeOfWorld(t *mpi.Task) int { return t.Comm().Size() }

// payloadCRC re-derives the whole-file CRC the manifest records (the
// trailing in-file CRC covers all preceding bytes; the manifest CRC
// covers the full file including that trailer).
func payloadCRC(b []byte) uint32 {
	return crc32Checksum(b)
}

// syncDir fsyncs a directory so a just-committed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
