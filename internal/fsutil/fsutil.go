// Package fsutil holds the small filesystem idioms the storage layers
// share — chiefly crash-atomic file replacement, which the WAL truncation
// sidecar and the rewrite of a node's control file rely on.
package fsutil

import (
	"fmt"
	"os"
	"path/filepath"
)

// AtomicWriteFile replaces path with data via write-temp + rename, so a
// reader never observes a torn file: it sees the old content or the new,
// never a mix. With sync set, the temp file is fsync'd before the rename
// and the directory entry after it, making the replacement durable — the
// mode every SyncPolicy=fdatasync caller uses.
//
// The temp file's name is fixed per path, so callers serialize writers of
// one path: two at once can lose the temp file to each other's rename.
func AtomicWriteFile(path string, data []byte, sync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("fsutil: atomic write: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("fsutil: atomic write: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("fsutil: atomic write sync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("fsutil: atomic write close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("fsutil: atomic write rename: %w", err)
	}
	if sync {
		return SyncDir(filepath.Dir(path))
	}
	return nil
}

// SyncDir fsyncs a directory so file creations, renames and removals in it
// are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fsutil: dir sync: %w", err)
	}
	return nil
}
