//! Transactions.
//!
//! A transaction gives a domain an isolated snapshot of the store: reads and
//! writes inside the transaction see a consistent view, and the batch is
//! applied atomically at commit time (or discarded on abort). Because the
//! tree is persistent, opening a transaction is an O(1) pointer copy — the
//! snapshot shares every node with the live tree until one side mutates.
//!
//! Commit is a *three-way merge*: the transaction keeps the pristine tree it
//! started from (`base`) next to its mutated `snapshot`, so at commit time
//! the store can compute the transaction's net effect as a structural diff
//! `base → snapshot` and graft it onto the (possibly concurrently advanced)
//! live tree. Commit fails with `EAGAIN` only when a concurrent commit
//! actually conflicts — *which* interleavings count as conflicts is decided
//! by the pluggable reconciliation engine ([`crate::engine`]) at node
//! granularity, and is exactly what Figure 3 of the paper measures.

use crate::error::Result;
use crate::path::Path;
use crate::perms::{DomId, Permissions};
use crate::tree::{Tree, TreeDiff};
use std::collections::BTreeMap;

/// The kind of dependency a transaction recorded on a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// The transaction read the node's value (or its permissions, or checked
    /// its existence). Reads of *missing* paths are recorded too: a read
    /// that observed absence conflicts with a concurrent create of that
    /// path.
    Value,
    /// The transaction listed the node's children, or depended on the child
    /// list by creating/removing a child beneath it.
    Directory,
    /// Both of the above: the transaction read the node's value *and*
    /// depended on its child list. Neither dependency may be dropped — a
    /// value read followed by a child creation still conflicts with a
    /// concurrent value change.
    Both,
}

impl ReadKind {
    /// True if the dependency includes the node's value.
    pub fn depends_on_value(self) -> bool {
        matches!(self, ReadKind::Value | ReadKind::Both)
    }

    /// True if the dependency includes the node's child list.
    pub fn depends_on_children(self) -> bool {
        matches!(self, ReadKind::Directory | ReadKind::Both)
    }
}

/// One mutation recorded in a transaction's write log.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnOp {
    /// Write a value (creating the node if needed).
    Write {
        /// Target path.
        path: Path,
        /// New value.
        value: Vec<u8>,
    },
    /// Create an empty node.
    Mkdir {
        /// Target path.
        path: Path,
    },
    /// Remove a subtree.
    Rm {
        /// Target path.
        path: Path,
    },
    /// Replace a node's permissions.
    SetPerms {
        /// Target path.
        path: Path,
        /// New permissions.
        perms: Permissions,
    },
}

impl TxnOp {
    /// The path this operation touches.
    pub fn path(&self) -> &Path {
        match self {
            TxnOp::Write { path, .. }
            | TxnOp::Mkdir { path }
            | TxnOp::Rm { path }
            | TxnOp::SetPerms { path, .. } => path,
        }
    }
}

/// An open transaction: the pristine base tree it started from, the mutable
/// snapshot all in-transaction operations run against, and the recorded
/// read set and write log.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// The transaction id handed to the client.
    pub id: u32,
    /// The domain that opened the transaction.
    pub dom: DomId,
    /// Store generation at the time the transaction started.
    pub start_gen: u64,
    /// The tree exactly as it was when the transaction started — the common
    /// ancestor of the three-way merge at commit time. An O(1) copy.
    pub base: Tree,
    /// The isolated snapshot all in-transaction operations run against.
    /// Starts as another O(1) copy of `base`; mutations path-copy.
    pub snapshot: Tree,
    /// Paths read (and how) during the transaction, including reads that
    /// observed a path to be *missing*.
    pub read_set: BTreeMap<Path, ReadKind>,
    /// Mutations to replay at commit time, in order.
    pub write_log: Vec<TxnOp>,
    /// Number of times this logical transaction has been retried after
    /// `EAGAIN` (maintained by the store for diagnostics).
    pub retries: u32,
}

impl Transaction {
    /// Open a transaction against the current state of `tree`. O(1): both
    /// the base and the snapshot share every node with `tree`.
    pub fn begin(id: u32, dom: DomId, tree: &Tree) -> Transaction {
        Transaction {
            id,
            dom,
            start_gen: tree.generation(),
            base: tree.clone(),
            snapshot: tree.clone(),
            read_set: BTreeMap::new(),
            write_log: Vec::new(),
            retries: 0,
        }
    }

    /// Record a value-read dependency on `path`. Callers must record reads
    /// of missing paths too — observing absence is a dependency that a
    /// concurrent create invalidates. Widens an existing directory
    /// dependency to [`ReadKind::Both`].
    pub fn note_read(&mut self, path: &Path) {
        self.read_set
            .entry(path.clone())
            .and_modify(|kind| {
                if *kind == ReadKind::Directory {
                    *kind = ReadKind::Both;
                }
            })
            .or_insert(ReadKind::Value);
    }

    /// Record a directory (child-list) dependency on `path`. Widens an
    /// existing value dependency to [`ReadKind::Both`] — it must never be
    /// dropped, or a concurrent value change would slip past the engines.
    pub fn note_dir_read(&mut self, path: &Path) {
        self.read_set
            .entry(path.clone())
            .and_modify(|kind| {
                if *kind == ReadKind::Value {
                    *kind = ReadKind::Both;
                }
            })
            .or_insert(ReadKind::Directory);
    }

    /// Paths written by this transaction, in log order (may repeat).
    pub fn written_paths(&self) -> impl Iterator<Item = &Path> {
        self.write_log.iter().map(|op| op.path())
    }

    /// True if the transaction performed no mutations.
    pub fn is_read_only(&self) -> bool {
        self.write_log.is_empty()
    }

    /// The deepest ancestor of `path` (possibly `path` itself) that already
    /// exists in the snapshot — the directory whose child list a creation at
    /// `path` actually depends on.
    fn deepest_existing_ancestor(&self, path: &Path) -> Path {
        let mut best = Path::root();
        for p in path.ancestry() {
            if self.snapshot.exists(&p) {
                best = p;
            } else {
                break;
            }
        }
        best
    }

    /// Apply an operation to the snapshot and record it in the write log.
    /// Mutations that fail permission or validity checks are not recorded.
    pub fn apply(&mut self, op: TxnOp) -> Result<()> {
        match &op {
            TxnOp::Write { path, value } => {
                // A creation depends on the child list of the deepest
                // directory that existed before this operation.
                let dep = if self.snapshot.exists(path) {
                    None
                } else {
                    Some(self.deepest_existing_ancestor(path))
                };
                self.snapshot.write(self.dom, path, value)?;
                if let Some(dep) = dep {
                    self.note_dir_read(&dep);
                }
            }
            TxnOp::Mkdir { path } => {
                let dep = if self.snapshot.exists(path) {
                    None
                } else {
                    Some(self.deepest_existing_ancestor(path))
                };
                self.snapshot.mkdir(self.dom, path)?;
                if let Some(dep) = dep {
                    self.note_dir_read(&dep);
                }
            }
            TxnOp::Rm { path } => {
                self.snapshot.rm(self.dom, path)?;
                if let Some(parent) = path.parent() {
                    self.note_dir_read(&parent);
                }
            }
            TxnOp::SetPerms { path, perms } => {
                self.snapshot.set_perms(self.dom, path, perms.clone())?;
            }
        }
        self.write_log.push(op);
        Ok(())
    }

    /// True if `path` was created by this transaction (it exists in the
    /// snapshot but only came into being after the transaction started).
    pub fn created_by_txn(&self, path: &Path) -> bool {
        self.snapshot
            .get(path)
            .map(|n| n.created_gen > self.start_gen)
            .unwrap_or(false)
    }

    /// The transaction's net effect: the structural diff from the pristine
    /// base to the mutated snapshot. Thanks to structural sharing this costs
    /// O(paths touched), not O(store size).
    pub fn changes(&self) -> TreeDiff {
        Tree::diff(&self.base, &self.snapshot)
    }

    /// Three-way merge: graft the transaction's net effect (`base →
    /// snapshot`) onto `live`, which may have advanced concurrently. The
    /// engines decide *whether* the merge is safe; this method performs it.
    ///
    /// Removals are applied first (topmost removed node per subtree), then
    /// creations and value updates in depth-first order (parents before
    /// children) — writes to concurrently removed nodes recreate them with
    /// the snapshot's permissions, matching the remove-then-write serial
    /// order — then permission updates, where a concurrently removed target
    /// is treated as already gone (the write-then-remove serial order).
    ///
    /// An error part-way through can leave `live` partially merged; the
    /// store commits onto an O(1) scratch copy and swaps it in only on
    /// success, so a failed commit never mutates the live tree.
    pub fn merge_onto(&self, live: &mut Tree) -> Result<()> {
        let diff = self.changes();
        for path in diff.removed_roots() {
            match live.rm(self.dom, path) {
                Ok(()) | Err(crate::error::Error::NoEntry(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let added = diff.added.iter().map(|(path, _)| (path, true));
        let updated = diff.value_changed.iter().map(|path| (path, false));
        for (path, is_creation) in added.chain(updated) {
            // A *created* path that already exists in the live tree can only
            // be an implicit ancestor (explicit creations of an existing
            // path conflict in the engines): both sides created the same
            // directory on the way to disjoint children, so the nodes merge
            // and the live one — possibly carrying a concurrent value —
            // wins. Never clobber it with the snapshot's empty scaffold.
            if is_creation && live.exists(path) {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "the diff enumerates paths present in the snapshot"
            )]
            let node = self
                .snapshot
                .get(path)
                .expect("diff path exists in snapshot");
            live.write(self.dom, path, &node.value)?;
            // Fresh nodes (including value-changed nodes recreated after a
            // concurrent removal) carry whatever permissions the creation
            // rules derive; restamp the snapshot's if they differ, so e.g.
            // guest ownership survives a dom0 rewrite.
            #[expect(
                clippy::expect_used,
                reason = "the path was written into the live tree on the previous line"
            )]
            let live_perms = &live.get(path).expect("just written").perms;
            if *live_perms != node.perms {
                live.set_perms(self.dom, path, node.perms.clone())?;
            }
        }
        for path in &diff.perms_changed {
            // `perms_changed` is disjoint from `added` by construction and
            // the write pass above already restamped the `value_changed`
            // overlap; a node removed concurrently stays gone (the txn only
            // touched its permissions, and the remove wins that serial
            // order).
            if diff.value_changed.binary_search(path).is_ok() || !live.exists(path) {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "the diff enumerates paths present in the snapshot"
            )]
            let node = self
                .snapshot
                .get(path)
                .expect("diff path exists in snapshot");
            live.set_perms(self.dom, path, node.perms.clone())?;
        }
        Ok(())
    }

    /// Replay the write log onto `tree` (used by the engines after deciding
    /// the commit does not conflict). Individual op failures are surfaced.
    ///
    /// [`Transaction::merge_onto`] is the net-effect equivalent the store
    /// uses on its commit path; `replay_onto` is kept for op-order-exact
    /// replays in tests and diagnostics.
    pub fn replay_onto(&self, tree: &mut Tree) -> Result<()> {
        for op in &self.write_log {
            match op {
                TxnOp::Write { path, value } => tree.write(self.dom, path, value)?,
                TxnOp::Mkdir { path } => tree.mkdir(self.dom, path)?,
                TxnOp::Rm { path } => {
                    // A node removed by a concurrent commit is treated as
                    // already gone rather than failing the whole batch.
                    match tree.rm(self.dom, path) {
                        Ok(()) | Err(crate::error::Error::NoEntry(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                TxnOp::SetPerms { path, perms } => tree.set_perms(self.dom, path, perms.clone())?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perms::DomId;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn begin_snapshots_current_state() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/a"), b"1").unwrap();
        let txn = Transaction::begin(1, DomId::DOM0, &tree);
        assert_eq!(txn.start_gen, tree.generation());
        assert_eq!(txn.snapshot.read(DomId::DOM0, &p("/a")).unwrap(), b"1");
        assert!(txn.is_read_only());
    }

    #[test]
    fn begin_is_a_pointer_copy_not_a_deep_clone() {
        let mut tree = Tree::new();
        for i in 0..500 {
            tree.write(DomId::DOM0, &p(&format!("/bulk/k{i}")), b"v")
                .unwrap();
        }
        let txn = Transaction::begin(1, DomId::DOM0, &tree);
        assert!(
            txn.snapshot.shares_root_with(&tree),
            "snapshot must share the live root"
        );
        assert!(txn.base.shares_root_with(&tree), "base must share too");
    }

    #[test]
    fn writes_are_isolated_until_merged() {
        let mut tree = Tree::new();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        txn.apply(TxnOp::Write {
            path: p("/local/domain/5/name"),
            value: b"web".to_vec(),
        })
        .unwrap();
        assert!(
            !tree.exists(&p("/local/domain/5/name")),
            "live tree untouched"
        );
        assert!(txn.snapshot.exists(&p("/local/domain/5/name")));
        txn.merge_onto(&mut tree).unwrap();
        assert_eq!(
            tree.read(DomId::DOM0, &p("/local/domain/5/name")).unwrap(),
            b"web"
        );
        assert!(!txn.is_read_only());
    }

    #[test]
    fn merge_and_replay_agree_on_the_net_effect() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/keep"), b"0").unwrap();
        tree.write(DomId::DOM0, &p("/dead/x"), b"1").unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        txn.apply(TxnOp::Write {
            path: p("/a/b"),
            value: b"2".to_vec(),
        })
        .unwrap();
        txn.apply(TxnOp::Rm { path: p("/dead") }).unwrap();
        txn.apply(TxnOp::Write {
            path: p("/keep"),
            value: b"9".to_vec(),
        })
        .unwrap();
        let mut merged = tree.clone();
        let mut replayed = tree.clone();
        txn.merge_onto(&mut merged).unwrap();
        txn.replay_onto(&mut replayed).unwrap();
        assert!(Tree::diff(&merged, &replayed).is_empty());
        assert!(Tree::diff(&merged, &txn.snapshot).is_empty());
    }

    #[test]
    fn changes_reports_the_net_effect_only() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/a"), b"1").unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        // Write then remove: net effect on /tmp is nothing.
        txn.apply(TxnOp::Write {
            path: p("/tmp"),
            value: b"x".to_vec(),
        })
        .unwrap();
        txn.apply(TxnOp::Rm { path: p("/tmp") }).unwrap();
        // Overwrite twice: one net value change.
        txn.apply(TxnOp::Write {
            path: p("/a"),
            value: b"2".to_vec(),
        })
        .unwrap();
        txn.apply(TxnOp::Write {
            path: p("/a"),
            value: b"3".to_vec(),
        })
        .unwrap();
        let diff = txn.changes();
        assert!(diff.added.is_empty());
        assert!(diff.removed.is_empty());
        assert_eq!(diff.value_changed, vec![p("/a")]);
        assert_eq!(txn.write_log.len(), 4, "the log still records every op");
    }

    #[test]
    fn apply_records_directory_dependency_on_deepest_existing_ancestor() {
        let mut tree = Tree::new();
        tree.mkdir(DomId::DOM0, &p("/local/domain")).unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        txn.apply(TxnOp::Mkdir {
            path: p("/local/domain/5"),
        })
        .unwrap();
        assert_eq!(
            txn.read_set.get(&p("/local/domain")),
            Some(&ReadKind::Directory)
        );
        // A second creation below the new node depends only on state the
        // transaction itself created, so no new shared dependency appears.
        txn.apply(TxnOp::Mkdir {
            path: p("/local/domain/5/device"),
        })
        .unwrap();
        assert!(
            !txn.read_set.contains_key(&p("/local/domain/5"))
                || txn.created_by_txn(&p("/local/domain/5"))
        );
        assert!(txn.created_by_txn(&p("/local/domain/5")));
        assert!(!txn.created_by_txn(&p("/local/domain")));
    }

    #[test]
    fn read_dependencies_widen_and_never_downgrade() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        // Directory then value: both dependencies survive.
        txn.note_dir_read(&p("/a"));
        txn.note_read(&p("/a"));
        assert_eq!(txn.read_set.get(&p("/a")), Some(&ReadKind::Both));
        // Value then directory: likewise.
        txn.note_read(&p("/c"));
        txn.note_dir_read(&p("/c"));
        assert_eq!(txn.read_set.get(&p("/c")), Some(&ReadKind::Both));
        txn.note_read(&p("/b"));
        assert_eq!(txn.read_set.get(&p("/b")), Some(&ReadKind::Value));
        assert!(ReadKind::Both.depends_on_value() && ReadKind::Both.depends_on_children());
        assert!(!ReadKind::Directory.depends_on_value());
        assert!(!ReadKind::Value.depends_on_children());
    }

    #[test]
    fn reads_of_missing_paths_are_recorded() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        // The store notes the read before attempting it, so a read that
        // returns ENOENT still lands in the read set.
        txn.note_read(&p("/not/yet/here"));
        assert!(txn.snapshot.read(DomId::DOM0, &p("/not/yet/here")).is_err());
        assert_eq!(
            txn.read_set.get(&p("/not/yet/here")),
            Some(&ReadKind::Value)
        );
    }

    #[test]
    fn failed_ops_are_not_logged() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(1, DomId(5), &tree);
        // dom5 cannot write under dom0's tree.
        assert!(txn
            .apply(TxnOp::Write {
                path: p("/tool/x"),
                value: b"v".to_vec()
            })
            .is_err());
        assert!(txn.write_log.is_empty());
    }

    #[test]
    fn merge_tolerates_concurrently_removed_nodes() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/a/b"), b"1").unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        txn.apply(TxnOp::Rm { path: p("/a/b") }).unwrap();
        // Concurrently, someone else removes it first.
        tree.rm(DomId::DOM0, &p("/a/b")).unwrap();
        txn.merge_onto(&mut tree).unwrap();
        assert!(!tree.exists(&p("/a/b")));
    }

    #[test]
    fn written_paths_and_op_path() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        txn.apply(TxnOp::Write {
            path: p("/x"),
            value: vec![1],
        })
        .unwrap();
        txn.apply(TxnOp::Mkdir { path: p("/y") }).unwrap();
        let paths: Vec<String> = txn.written_paths().map(|p| p.to_string()).collect();
        assert_eq!(paths, vec!["/x", "/y"]);
        assert_eq!(TxnOp::Rm { path: p("/z") }.path().to_string(), "/z");
    }
}
