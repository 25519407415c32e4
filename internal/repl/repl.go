// Package repl implements log-shipping replication: warm standbys kept
// current by continuous redo over the primary's transaction log,
// serving the paper's point-in-time queries at a bounded, observable lag.
//
// The paper's system (§3) lives inside SQL Azure, where every database is
// already maintained on log-shipped replicas; this package supplies the
// missing half of that environment so §6.3-style as-of traffic can be
// scaled horizontally — absorbed by standbys — instead of stealing primary
// CPU. The log stream is the replication medium (Yao et al., "Adaptive
// Logging"): the replica's local log is a byte-identical copy of the
// primary's, so LSNs line up and the entire as-of read path (per-page
// chain walks, the sparse time→LSN index, snapshot mounting, FindCommits)
// works against it unchanged.
//
// Primary side: Shipper hooks the group-commit flush pipeline
// (wal.Manager.FlushNotify) and streams newly durable byte ranges as
// framed, CRC-checked batches over a transport Conn — in-process channel
// pairs (Pipe) for embedded replicas and tests, length-prefixed TCP
// (Listen/Dial) for real deployments. Shipping reads the warm log tail
// with ReadDurable, bypassing the random-read block cache that as-of chain
// walks depend on.
//
// Replica side: Replica runs a standing redo loop over crash recovery's own
// passes (engine.RecoveryState / DB.RedoBatch): analysis state is
// maintained incrementally — exact at every applied LSN, so neither
// snapshot mounting nor promotion ever scans the log for analysis — and
// redo applies each stretch of the local log serially in log order, its
// pages read ahead in runs while the pool is filling. (Redo partitioned
// by page id over workers, after Wu et al., "Fast Failure Recovery",
// bought nothing on a two-core machine with one serial device and was
// removed; DESIGN.md has the numbers.) The replica keeps its own checkpoint
// cadence (page flush + persisted apply state, never log records) for
// bounded restart, reseeds the time→LSN index and ATT marks from the
// stream, and mounts as-of snapshots locally. Promote completes undo and
// reopens the standby read-write.
//
// History older than the primary's live segment set is still reachable: a
// subscription below the live floor is served from the retention archive
// when one covers it (Manager.ReadDurable serves archived and live bytes as
// one stream), and a replica whose resume point the upstream no longer
// holds is rebuilt with ReseedFromBackup — backup image as data.db, an
// empty local log and apply state positioned at the backup checkpoint —
// after which it subscribes at the backup checkpoint like any replica.
//
// Replication cascades: a Replica hosts a Shipper over its own local log
// (ShipLocal), and because that log is a byte-identical copy of the
// upstream's — AppendRaw ingest advances the durable LSN through the same
// FlushNotify hook a primary's group commit uses — downstream replicas
// chain off a mid-tier standby (primary → R1 → R2 → ...) with per-hop
// lag/retained-LSN status propagated up the tree via ack piggybacks.
// Promoting a mid-tier node fences its children deterministically
// (KindPromoted, before the log forks); children re-point at the promoted
// node or are orphaned at their applied horizon.
//
// Router + Session supply the read-side guarantees that make offloaded
// as-of reads usable by applications: commits yield a token (the durable
// commit LSN, Txn.CommitLSN), and a token-routed read is served only by a
// standby — at any cascade tier — whose applied LSN has reached the token,
// falling back to the primary when the whole fleet lags. Sessions fold
// served split LSNs back into the token, so reads are monotonic across
// arbitrary routing.
package repl
