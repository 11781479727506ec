package stream

// Crash-safe persistence for the streaming detector. A checkpoint,
// taken at a day boundary, captures everything a restart needs to
// continue the alert feed byte-identically: the window's per-day
// pipeline aggregates, the warm-start embedding state of the last
// successful remodel, the alerted-domain set, and a configuration
// fingerprint. The stream is one gob payload sealed and committed by
// internal/crcio (magic, CRC-32 trailer, temp file + fsync + rename
// through the injectable filesystem seam of internal/faultio), so a
// crash — or an injected fault — at any step leaves the previous
// checkpoint intact.
//
// Days beyond the checkpoint cursor are deliberately not serialized:
// a boundary checkpoint captures completed days only, and the caller
// replays its input stream after Restore. The restored Rolling drops
// observations at or before the cursor itself, so the replay needs no
// caller-side filtering.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/crcio"
	"repro/internal/faultio"
	"repro/internal/pipeline"
)

const (
	// checkpointMagic leads every checkpoint stream, so arbitrary gob
	// files (or truncated garbage) are refused before any decoding.
	checkpointMagic = "maldomain-ckpt\n"
	// checkpointVersion is bumped on any incompatible layout change.
	checkpointVersion = 1
)

// Typed failure classes for checkpoint loading. Restore never panics:
// arbitrary bytes produce an error wrapping one of these (or a plain
// I/O error from the reader itself).
var (
	// ErrCorruptCheckpoint reports a stream that is not a checkpoint,
	// fails its CRC, is truncated, or carries internally inconsistent
	// state.
	ErrCorruptCheckpoint = errors.New("stream: corrupt checkpoint")
	// ErrFingerprintMismatch reports a well-formed checkpoint written
	// under a different configuration; restoring it would silently
	// change model semantics mid-stream.
	ErrFingerprintMismatch = errors.New("stream: checkpoint fingerprint mismatch")
)

// Cursor locates a checkpoint in the caller's input and output streams:
// the last day boundary fully processed, and the caller's alert-feed
// length at that point. On resume, a driver truncates its feed to
// FeedBytes and replays input; the restored detector ignores days at or
// before Day.
type Cursor struct {
	// Day is the last day boundary whose EndOfDay completed before the
	// checkpoint was taken.
	Day int
	// FeedBytes is the caller's alert feed size in bytes at checkpoint
	// time (0 if the caller keeps no feed file).
	FeedBytes int64
}

// checkpointWire is the gob body of a checkpoint stream.
type checkpointWire struct {
	Version     int
	Fingerprint string
	Cursor      Cursor
	Flagged     []string
	Days        []daySnapshot
	// WarmDomains and WarmEmb carry the last successful remodel's
	// retained domain list (index-ordered) and per-view embeddings;
	// empty when no remodel has succeeded yet.
	WarmDomains []string
	WarmEmb     []viewVectors
}

type daySnapshot struct {
	Day  int
	Snap *pipeline.Snapshot
}

type viewVectors struct {
	View    bipartite.View
	Dim     int
	Vectors [][]float64
}

// fingerprint describes every configuration knob that shapes streaming
// state, so Restore can refuse checkpoints written under a different
// configuration. Call on a defaulted Config.
func (c Config) fingerprint() string {
	det := withWindow(c.Detector, c.Start, 0)
	return fmt.Sprintf("stream window=%d flag=%g minrank=%d det={%s}",
		c.WindowDays, c.FlagFraction, c.MinScoreRank, det.Fingerprint())
}

// Checkpoint writes the detector's state at the given cursor to w as
// one versioned, CRC-sealed stream. Only days at or before cur.Day are
// serialized (see the package comment on replay semantics).
func (r *Rolling) Checkpoint(w io.Writer, cur Cursor) error {
	if cur.Day < 0 {
		return fmt.Errorf("stream: checkpoint cursor day %d is negative", cur.Day)
	}
	if cur.FeedBytes < 0 {
		return fmt.Errorf("stream: checkpoint cursor feed offset %d is negative", cur.FeedBytes)
	}
	wire := checkpointWire{
		Version:     checkpointVersion,
		Fingerprint: r.cfg.fingerprint(),
		Cursor:      cur,
	}
	wire.Flagged = make([]string, 0, len(r.flagged))
	for d := range r.flagged {
		wire.Flagged = append(wire.Flagged, d)
	}
	sort.Strings(wire.Flagged)
	for d, p := range r.days {
		if d <= cur.Day {
			wire.Days = append(wire.Days, daySnapshot{Day: d, Snap: p.Snapshot()})
		}
	}
	sort.Slice(wire.Days, func(i, j int) bool { return wire.Days[i].Day < wire.Days[j].Day })
	if len(r.prevIndex) > 0 {
		// Validate in sorted domain order so a corrupt index yields the
		// same error (first offending domain) on every run, keeping the
		// checkpoint write path deterministic end to end.
		keys := make([]string, 0, len(r.prevIndex))
		for d := range r.prevIndex {
			keys = append(keys, d)
		}
		sort.Strings(keys)
		doms := make([]string, len(r.prevIndex))
		for _, d := range keys {
			i := r.prevIndex[d]
			if i < 0 || i >= len(doms) || doms[i] != "" {
				return fmt.Errorf("stream: warm-start index is not a permutation (domain %q at %d)", d, i)
			}
			doms[i] = d
		}
		wire.WarmDomains = doms
		for _, v := range bipartite.Views {
			emb := r.prevEmb[v]
			if emb == nil {
				return fmt.Errorf("stream: warm-start state missing %v embedding", v)
			}
			wire.WarmEmb = append(wire.WarmEmb, viewVectors{View: v, Dim: emb.Dim, Vectors: emb.Vectors})
		}
	}

	return crcio.SealGob(w, checkpointMagic, wire)
}

// WriteCheckpoint atomically replaces path with a fresh checkpoint
// (crcio.Commit): on any failure the previous checkpoint at path is
// untouched and no temp file is left behind.
func (r *Rolling) WriteCheckpoint(path string, cur Cursor) error {
	return r.writeCheckpoint(faultio.OS, path, cur)
}

// writeCheckpoint is WriteCheckpoint with an injectable filesystem, the
// seam the fault-injection tests drive.
func (r *Rolling) writeCheckpoint(fs faultio.FS, path string, cur Cursor) error {
	start := time.Now() //maldlint:ignore detpath write latency metric only, never checkpoint contents
	n, err := crcio.Commit(fs, path, ".ckpt-*", func(w io.Writer) error {
		return r.Checkpoint(w, cur)
	})
	if m := r.cfg.Metrics; m != nil {
		result := "ok"
		if err != nil {
			result = "error"
		}
		m.CounterVec("maldomain_checkpoints_total",
			"Checkpoint write attempts by result.", "result").With(result).Inc()
		if err == nil {
			m.Gauge("maldomain_checkpoint_bytes",
				"Size in bytes of the last checkpoint written.").Set(float64(n))
			m.Gauge("maldomain_checkpoint_last_unix_seconds",
				//maldlint:ignore detpath wall-clock gauge is observability only, never checkpoint contents
				"Unix time of the last successful checkpoint write.").Set(float64(time.Now().Unix()))
			m.Histogram("maldomain_checkpoint_write_seconds",
				"Checkpoint write latency in seconds.").Observe(time.Since(start).Seconds())
		}
	}
	return err
}

// Restore reads a checkpoint written by Checkpoint and returns a
// Rolling detector ready to continue from it, plus the cursor recorded
// at checkpoint time. cfg must be the same configuration the
// checkpointing detector ran under (compared by fingerprint; a
// mismatch is refused with ErrFingerprintMismatch). Corrupt, truncated,
// or foreign streams are refused with errors wrapping
// ErrCorruptCheckpoint — never a panic.
//
// After Restore, replay the input stream: observations for days at or
// before the cursor are ignored automatically, then call EndOfDay for
// each boundary after cursor.Day. A model build is a pure function of
// its window, configuration and seed, so the resumed alert feed is
// byte-identical to an uninterrupted run.
func Restore(rd io.Reader, cfg Config) (*Rolling, Cursor, error) {
	r, cur, err := restore(rd, cfg)
	countRestore(cfg, err)
	return r, cur, err
}

// countRestore records one restore attempt's outcome.
func countRestore(cfg Config, err error) {
	m := cfg.Metrics
	if m == nil {
		return
	}
	result := "ok"
	switch {
	case errors.Is(err, ErrFingerprintMismatch):
		result = "fingerprint"
	case errors.Is(err, ErrCorruptCheckpoint):
		result = "corrupt"
	case err != nil:
		result = "error"
	}
	m.CounterVec("maldomain_restores_total",
		"Checkpoint restore attempts by result.", "result").With(result).Inc()
}

func restore(rd io.Reader, cfg Config) (*Rolling, Cursor, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, Cursor{}, err
	}
	var wire checkpointWire
	if err := crcio.OpenGob(rd, checkpointMagic, &wire); err != nil {
		return nil, Cursor{}, fmt.Errorf("%w: %w", ErrCorruptCheckpoint, err)
	}
	if wire.Version != checkpointVersion {
		return nil, Cursor{}, fmt.Errorf("stream: checkpoint version %d, this build reads %d",
			wire.Version, checkpointVersion)
	}
	if got, want := wire.Fingerprint, cfg.fingerprint(); got != want {
		return nil, Cursor{}, fmt.Errorf("%w: checkpoint %q, config %q", ErrFingerprintMismatch, got, want)
	}
	if wire.Cursor.Day < 0 || wire.Cursor.FeedBytes < 0 {
		return nil, Cursor{}, fmt.Errorf("%w: negative cursor %+v", ErrCorruptCheckpoint, wire.Cursor)
	}

	r := &Rolling{
		cfg:     cfg,
		days:    make(map[int]*pipeline.Processor, len(wire.Days)),
		lastDay: wire.Cursor.Day,
		floor:   wire.Cursor.Day,
		flagged: make(map[string]bool, len(wire.Flagged)),
	}
	for _, d := range wire.Flagged {
		r.flagged[d] = true
	}
	rc := pipeline.RestoreConfig{DHCP: cfg.Detector.DHCP, Suffixes: cfg.Detector.Suffixes}
	for _, ds := range wire.Days {
		if ds.Day < 0 || ds.Day > wire.Cursor.Day {
			return nil, Cursor{}, fmt.Errorf("%w: day %d outside cursor %d", ErrCorruptCheckpoint, ds.Day, wire.Cursor.Day)
		}
		if _, dup := r.days[ds.Day]; dup {
			return nil, Cursor{}, fmt.Errorf("%w: duplicate day %d", ErrCorruptCheckpoint, ds.Day)
		}
		p, err := pipeline.FromSnapshot(ds.Snap, rc)
		if err != nil {
			return nil, Cursor{}, fmt.Errorf("%w: day %d: %v", ErrCorruptCheckpoint, ds.Day, err)
		}
		r.days[ds.Day] = p
	}
	if err := r.restoreWarmState(wire); err != nil {
		return nil, Cursor{}, err
	}
	// The shard pool is process-local scratch, not checkpoint state (the
	// fingerprint deliberately excludes Shards): a restored detector
	// re-attaches a fresh pool so replayed ingestion runs sharded too.
	if err := r.attachPool(); err != nil {
		return nil, Cursor{}, err
	}
	return r, wire.Cursor, nil
}

// restoreWarmState validates and installs the warm-start embeddings.
func (r *Rolling) restoreWarmState(wire checkpointWire) error {
	if len(wire.WarmDomains) == 0 {
		if len(wire.WarmEmb) != 0 {
			return fmt.Errorf("%w: warm embeddings without a domain index", ErrCorruptCheckpoint)
		}
		return nil
	}
	if len(wire.WarmEmb) != len(bipartite.Views) {
		return fmt.Errorf("%w: %d warm embeddings, want %d", ErrCorruptCheckpoint,
			len(wire.WarmEmb), len(bipartite.Views))
	}
	index := make(map[string]int, len(wire.WarmDomains))
	for i, d := range wire.WarmDomains {
		if d == "" {
			return fmt.Errorf("%w: empty warm-start domain at %d", ErrCorruptCheckpoint, i)
		}
		if _, dup := index[d]; dup {
			return fmt.Errorf("%w: duplicate warm-start domain %q", ErrCorruptCheckpoint, d)
		}
		index[d] = i
	}
	embs := make(map[bipartite.View]*core.Embedding, len(bipartite.Views))
	for i, vv := range wire.WarmEmb {
		if vv.View != bipartite.Views[i] {
			return fmt.Errorf("%w: warm embedding %d has view %d, want %d", ErrCorruptCheckpoint,
				i, int(vv.View), int(bipartite.Views[i]))
		}
		if vv.Dim <= 0 {
			return fmt.Errorf("%w: warm %v embedding has dimension %d", ErrCorruptCheckpoint, vv.View, vv.Dim)
		}
		if len(vv.Vectors) != len(wire.WarmDomains) {
			return fmt.Errorf("%w: warm %v embedding has %d vectors for %d domains", ErrCorruptCheckpoint,
				vv.View, len(vv.Vectors), len(wire.WarmDomains))
		}
		for j, vec := range vv.Vectors {
			if len(vec) != vv.Dim {
				return fmt.Errorf("%w: warm %v vector %d has dim %d, want %d", ErrCorruptCheckpoint,
					vv.View, j, len(vec), vv.Dim)
			}
		}
		embs[vv.View] = &core.Embedding{Dim: vv.Dim, Vectors: vv.Vectors}
	}
	r.prevIndex, r.prevEmb = index, embs
	return nil
}

// RestoreFile loads a checkpoint from path. A missing file is reported
// as-is (os.IsNotExist-compatible) so callers can treat it as a cold
// start.
func RestoreFile(path string, cfg Config) (*Rolling, Cursor, error) {
	var cur Cursor
	r, err := crcio.ReadFile(path, func(rd io.Reader) (r *Rolling, err error) {
		r, cur, err = restore(rd, cfg)
		return r, err
	})
	countRestore(cfg, err)
	if err != nil {
		return nil, Cursor{}, err
	}
	return r, cur, nil
}

// ConsumedThrough reports the last day boundary a restored checkpoint
// covers, or -1 for a detector that started cold. Observations at or
// before it are dropped by Consume.
func (r *Rolling) ConsumedThrough() int { return r.floor }
