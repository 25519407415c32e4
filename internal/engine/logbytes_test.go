package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/row"
)

// fixedNow returns a frozen wall clock so every run of the same workload
// writes byte-identical commit timestamps.
func fixedNow() clock.Clock {
	at := time.Date(2012, 8, 27, 12, 0, 0, 0, time.UTC)
	return clock.Func(func() time.Time { return at })
}

// runSerialWorkload applies a deterministic serial workload: batches of
// inserts/updates/deletes, one transaction per batch.
func runSerialWorkload(t *testing.T, db *DB, batches int) {
	t.Helper()
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	for b := 0; b < batches; b++ {
		mustExec(t, db, func(tx *Txn) error {
			for i := 0; i < 8; i++ {
				id := b*8 + i
				if err := tx.Insert("t", testRow(id, fmt.Sprintf("v%d", id), id)); err != nil {
					return err
				}
			}
			if b > 0 {
				if err := tx.Update("t", testRow((b-1)*8, fmt.Sprintf("u%d", b), b)); err != nil {
					return err
				}
				if err := tx.Delete("t", row.Row{row.Int64(int64((b-1)*8 + 1))}); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// treeDigest hashes every file under root in the (lexical) order Walk visits
// them: for each file its slash-separated path relative to root, a zero byte,
// then its content.
func treeDigest(t *testing.T, root string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// logBytesGolden is the treeDigest of wal/ after the workload below, computed
// at commit bb54bc2 — the last build that could also write a partitioned log.
// Its removal had to leave every byte of the single-stream log where it was,
// and so must any later change that does not mean to alter the log format; one
// that does replaces this constant and says so.
// Re-pinned once, on purpose, when update records began to carry only the bytes
// that changed (internal/wal/update.go); with whole-row updates the digest was
// f9d65187a5517aef830a7a5366da187d3b49d4d0b49e9789760dee07452e9dc4.
const logBytesGolden = "84d510a8e28fb009f20dcd3406a60bd4f7cb26e89b0a5f26bc6166821175d002"

func TestLogBytesGolden(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Clock: fixedNow(), SyncPolicy: testSyncPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	runSerialWorkload(t, db, 10)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := treeDigest(t, filepath.Join(dir, "wal")); got != logBytesGolden {
		t.Fatalf("wal/ digest = %s, want %s: the log bytes moved", got, logBytesGolden)
	}
}
