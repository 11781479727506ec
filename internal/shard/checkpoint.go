package shard

// Per-shard checkpoint persistence. Each shard's file captures the
// worker's open-day aggregates plus its (day floor, sequence) cursor,
// sealed and committed by internal/crcio like the stream checkpoint —
// through the injectable faultio seam, so the chaos tests can tear a
// write at any step and prove the previous generation survives. The
// files are process-scratch, not durable deployment state: a restart of
// the whole process goes through the stream checkpoint and replay
// instead, so New clears stale shard files.

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/crcio"
	"repro/internal/pipeline"
)

const (
	shardMagic       = "maldomain-shard\n"
	shardCkptVersion = 1
)

// ErrCorruptCheckpoint reports a shard checkpoint that is not one, is
// truncated, fails its CRC, or disagrees with the supervisor's replay
// bookkeeping.
var ErrCorruptCheckpoint = errors.New("shard: corrupt checkpoint")

// shardWire is the gob body of a shard checkpoint.
type shardWire struct {
	Version     int
	Fingerprint string
	Shard       int
	Seq         uint64
	DayFloor    int
	Days        []shardDaySnap
}

// writeCheckpoint commits one shard's snapshot to its file atomically
// (crcio.Commit): on any failure the previous checkpoint is left
// untouched.
func (p *Pool) writeCheckpoint(id int, rep ckptReply) error {
	wire := shardWire{
		Version:     shardCkptVersion,
		Fingerprint: p.fp,
		Shard:       id,
		Seq:         rep.seq,
		DayFloor:    rep.dayFloor,
		Days:        rep.days,
	}
	_, err := crcio.Commit(p.cfg.FS, p.ckptPath(id), ".shard-*", func(w io.Writer) error {
		return crcio.SealGob(w, shardMagic, wire)
	})
	return err
}

// readCheckpoint loads a shard's checkpoint file into a worker state.
func (p *Pool) readCheckpoint(id int) (workerState, error) {
	wire, err := crcio.ReadFile(p.ckptPath(id), func(rd io.Reader) (wire shardWire, err error) {
		err = crcio.OpenGob(rd, shardMagic, &wire)
		return wire, err
	})
	if errors.Is(err, crcio.ErrCorrupt) {
		err = fmt.Errorf("%w: %w", ErrCorruptCheckpoint, err)
	}
	if err != nil {
		return workerState{}, err
	}
	if wire.Version != shardCkptVersion {
		return workerState{}, fmt.Errorf("shard: checkpoint version %d, this build reads %d",
			wire.Version, shardCkptVersion)
	}
	if wire.Fingerprint != p.fp {
		return workerState{}, fmt.Errorf("%w: fingerprint %q, pool %q", ErrCorruptCheckpoint, wire.Fingerprint, p.fp)
	}
	if wire.Shard != id {
		return workerState{}, fmt.Errorf("%w: file is for shard %d, not %d", ErrCorruptCheckpoint, wire.Shard, id)
	}
	st := freshState(wire.DayFloor, wire.Seq)
	rc := pipeline.RestoreConfig{DHCP: p.cfg.DHCP, Suffixes: p.cfg.Suffixes}
	for _, ds := range wire.Days {
		if ds.Day <= wire.DayFloor {
			return workerState{}, fmt.Errorf("%w: open day %d at or below floor %d", ErrCorruptCheckpoint, ds.Day, wire.DayFloor)
		}
		if _, dup := st.days[ds.Day]; dup {
			return workerState{}, fmt.Errorf("%w: duplicate day %d", ErrCorruptCheckpoint, ds.Day)
		}
		proc, err := pipeline.FromSnapshot(ds.Snap, rc)
		if err != nil {
			return workerState{}, fmt.Errorf("%w: day %d: %v", ErrCorruptCheckpoint, ds.Day, err)
		}
		st.days[ds.Day] = proc
	}
	return st, nil
}
