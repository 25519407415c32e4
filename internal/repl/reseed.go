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
// point predates the retention horizon), from the backup image alone:
//
//   - the backup image becomes the replica's data.db (checkpoint-consistent
//     pages, boot page included);
//   - the local log is created empty, based at the backup checkpoint;
//   - a standby record in the control file positions apply at the backup
//     checkpoint, seeded with the checkpoint's ATT so incremental analysis
//     is exact from the first replayed record.
//
// OpenReplica then has nothing to replay, and Run subscribes at
// man.BackupLSN. The upstream serves every byte from there, live or from
// its retention archive, through Manager.ReadDurable; if it no longer holds
// them it refuses the subscription with its floor in the error.
func ReseedFromBackup(dir string, man backup.Manifest) error {
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

	// 2. Local log: an empty store based at the backup checkpoint.
	m, err := wal.OpenStore(filepath.Join(dir, "wal"), wal.Config{BaseLSN: man.BackupLSN})
	if err != nil {
		return err
	}
	if err := m.Close(); err != nil {
		return err
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
