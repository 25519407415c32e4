package repl

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/backup"
	"repro/internal/control"
	"repro/internal/wal"
)

// ReseedFromBackup materializes a replica directory for a subscription that
// the primary would otherwise reject (ErrSubscriptionRejected: the resume
// point predates the retention horizon). It closes the gap the PR 3 design
// left open — "reseed such a replica from a backup" — using durable state
// only:
//
//   - the backup image becomes the replica's data.db (checkpoint-consistent
//     pages, boot page included);
//   - archived log segments covering [manifest.BackupLSN, horizon) are
//     copied in as the replica's local log — byte-identical primary log, so
//     LSNs and every chain walk line up, exactly as if the replica had
//     ingested them from the stream;
//   - a standby record in the control file positions apply at the backup
//     checkpoint, seeded with the checkpoint's ATT so incremental analysis
//     is exact from the first replayed record.
//
// If the backup is newer than the retention horizon (no archive needed),
// the local log is created empty, based at the backup checkpoint; the
// stream then supplies everything from there.
//
// After ReseedFromBackup, OpenReplica replays the copied history (parallel
// redo) and Run subscribes at its end — at or above the primary's
// truncation point, so the subscription is accepted and the replica
// converges to byte-identical state.
func ReseedFromBackup(dir string, man backup.Manifest, archiveDir string) error {
	if man.BackupLSN == wal.NilLSN {
		return errors.New("repl: reseed with an empty backup manifest")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"data.db", "wal", control.Name} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("repl: reseed target %s already holds %s; refusing to clobber a replica", dir, name)
		}
	}

	// 1. Backup image -> data.db (page-sequential copy, synced).
	if err := copyFile(man.Path, filepath.Join(dir, "data.db")); err != nil {
		return fmt.Errorf("repl: reseed image copy: %w", err)
	}

	// 2. Local log: archived segments covering the backup checkpoint
	// onward, or an empty store based at the checkpoint when the archive
	// holds nothing at or past it (recent backup: the stream covers it).
	walDir := filepath.Join(dir, "wal")
	startOff := int64(man.BackupLSN - 1)
	copied, err := copyArchivedSegments(archiveDir, walDir, startOff)
	if err != nil {
		return err
	}
	if copied == 0 {
		m, err := wal.OpenStore(walDir, wal.Config{BaseLSN: man.BackupLSN})
		if err != nil {
			return err
		}
		if err := m.Close(); err != nil {
			return err
		}
	} else {
		// The copied history must actually reach down to the backup
		// checkpoint: a replica whose local log starts above BackupLSN
		// would silently skip redo of the gap.
		segs, err := wal.ListSegments(walDir)
		if err != nil {
			return err
		}
		if segs[0].Base > man.BackupLSN {
			return fmt.Errorf("repl: archive starts at %v but the backup needs replay from %v; "+
				"the archive no longer covers this image", segs[0].Base, man.BackupLSN)
		}
		// The first copied segment usually begins mid-record; BackupLSN is
		// the record boundary everything (scans, FindCommits) must resume
		// from. Opening the store and truncating persists that boundary in
		// the trunc sidecar.
		m, err := wal.OpenStore(walDir, wal.Config{})
		if err != nil {
			return err
		}
		if err := m.Truncate(man.BackupLSN); err != nil {
			m.Close()
			return err
		}
		if err := m.Close(); err != nil {
			return err
		}
	}

	// 3. Apply state: analysis resumes at the backup checkpoint with its
	// exact ATT; the catch-up scan starts at BackupLSN (a record boundary).
	maxTxn := uint64(0)
	for _, e := range man.ATT {
		if e.TxnID > maxTxn {
			maxTxn = e.TxnID
		}
	}
	ctl, err := control.Open(filepath.Join(dir, control.Name), true)
	if err != nil {
		return err
	}
	return ctl.Add(control.Standby{Applied: man.BackupLSN - 1, MaxTxn: maxTxn, ATT: man.ATT}.Record())
}

// copyArchivedSegments copies every archived segment whose byte range
// reaches past startOff into dstDir, returning how many were copied. The
// segment containing startOff is included whole (extra history below the
// checkpoint is harmless: it simply raises the replica's local retention
// floor to that segment's base).
func copyArchivedSegments(archiveDir, dstDir string, startOff int64) (int, error) {
	if archiveDir == "" {
		return 0, nil
	}
	segs, err := wal.ListSegments(archiveDir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	copied := 0
	for _, s := range segs {
		if int64(s.End-1) <= startOff {
			continue // wholly below the backup checkpoint
		}
		if err := os.MkdirAll(dstDir, 0o755); err != nil {
			return copied, err
		}
		dst := filepath.Join(dstDir, filepath.Base(s.Path))
		if err := copyFile(s.Path, dst); err != nil {
			return copied, fmt.Errorf("repl: reseed segment copy: %w", err)
		}
		copied++
	}
	return copied, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ReseedCheck reports whether a manifest + archive can bridge a replica to
// the primary's current retention horizon: the archive (or the live log)
// must cover every byte from the backup checkpoint to the horizon. It is a
// cheap preflight for operators before copying a large image.
func ReseedCheck(man backup.Manifest, archiveDir string, horizon wal.LSN) error {
	if man.BackupLSN >= horizon {
		return nil // the live log alone covers the replay range
	}
	segs, err := wal.ListSegments(archiveDir)
	if err != nil {
		return fmt.Errorf("repl: reseed preflight: %w", err)
	}
	cover := wal.NilLSN
	for _, s := range segs {
		if cover == wal.NilLSN {
			if s.Base <= man.BackupLSN && s.End > man.BackupLSN {
				cover = s.End
			}
			continue
		}
		if s.Base != cover {
			break // gap
		}
		cover = s.End
	}
	if cover == wal.NilLSN || cover < horizon {
		return fmt.Errorf("repl: archive covers up to %v, need %v..%v", cover, man.BackupLSN, horizon)
	}
	return nil
}
