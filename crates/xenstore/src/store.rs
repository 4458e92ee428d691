//! The top-level store: tree + watches + quotas + transactions.
//!
//! `XenStore` is the object the rest of the reproduction talks to. It accepts
//! requests on behalf of a domain (`DomId`), optionally inside a transaction
//! (`TxId`), enforces permissions and quotas, fires watches on mutation, and
//! delegates commit-time conflict decisions to the configured reconciliation
//! engine.
//!
//! The store leans on the persistent tree throughout: every mutation first
//! takes an O(1) snapshot of the live tree, applies the change, and then
//! computes the structural diff between the two — watches fire from the
//! *committed merged tree* (one event per path that actually changed, not
//! one per write-log entry), and per-domain quota accounting is maintained
//! incrementally from the same diffs instead of re-walking the whole store
//! on every write.
//!
//! The two watch models are deliberately asymmetric. *Direct* ops keep the
//! classic protocol semantics: the op's own path always fires (even for a
//! same-value touch), plus any other paths the op structurally changed
//! (implicitly created ancestors, removed descendants). *Transactional*
//! commits fire exactly the net diff of the merged result — a batch that
//! rewrites a key to its old value or creates-then-removes a scratch node
//! notifies nobody, because from any observer's point of view nothing
//! happened atomically. Use a direct write for touch-to-notify.

use crate::engine::{EngineKind, Reconcile, TxnEngine};
use crate::error::{Error, Result};
use crate::path::Path;
use crate::perms::{DomId, Permissions};
use crate::quota::Quota;
use crate::transaction::{Transaction, TxnOp};
use crate::tree::{Tree, TreeDiff};
use crate::watch::{WatchEvent, WatchManager};
use std::collections::BTreeMap;

/// A transaction identifier handed out by [`XenStore::transaction_start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(pub u32);

/// Counters describing the store's activity, used by Figure 3 and by tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful commits.
    pub commits: u64,
    /// Commits that landed on a store that had advanced concurrently since
    /// the transaction began — i.e. commits that would have aborted under
    /// the serialising engine but were *merged* instead. A subset of
    /// `commits`.
    pub merged: u64,
    /// Commits rejected with `EAGAIN`.
    pub conflicts: u64,
    /// Transactions aborted by the client.
    pub aborts: u64,
    /// Individual operations processed (reads, writes, directory listings…).
    pub ops: u64,
    /// Watch events fired.
    pub watch_events: u64,
}

impl StoreStats {
    /// Fraction of commit attempts rejected with `EAGAIN`, in `[0, 1]`.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.conflicts;
        if attempts == 0 {
            0.0
        } else {
            self.conflicts as f64 / attempts as f64
        }
    }

    /// Fraction of successful commits that landed via the merge path (their
    /// base had advanced concurrently), in `[0, 1]`.
    pub fn merge_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.merged as f64 / self.commits as f64
        }
    }
}

/// The shared store.
pub struct XenStore {
    tree: Tree,
    watches: WatchManager,
    engine: Box<dyn TxnEngine>,
    quota: Quota,
    transactions: BTreeMap<u32, Transaction>,
    next_tx_id: u32,
    stats: StoreStats,
    /// Nodes owned per domain, maintained incrementally from structural
    /// diffs so the quota check never walks the tree.
    owned: BTreeMap<u32, usize>,
}

impl std::fmt::Debug for XenStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XenStore")
            .field("engine", &self.engine.kind())
            .field("nodes", &self.tree.node_count())
            .field("open_transactions", &self.transactions.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl XenStore {
    /// Create a store with the given reconciliation engine and default
    /// quotas.
    pub fn new(engine: EngineKind) -> XenStore {
        XenStore::with_quota(engine, Quota::default())
    }

    /// Create a store with explicit quotas.
    pub fn with_quota(engine: EngineKind, quota: Quota) -> XenStore {
        let tree = Tree::new();
        // Seed the incremental ownership counts with the pre-existing root
        // node; everything else flows in through structural diffs.
        #[expect(clippy::expect_used, reason = "Tree::new always creates a root node")]
        let root_owner = tree
            .get(&Path::root())
            .expect("new tree has a root")
            .perms
            .owner();
        XenStore {
            tree,
            watches: WatchManager::new(),
            engine: engine.build(),
            quota,
            transactions: BTreeMap::new(),
            next_tx_id: 1,
            stats: StoreStats::default(),
            owned: BTreeMap::from([(root_owner.0, 1)]),
        }
    }

    /// The engine this store reconciles transactions with.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// Activity counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The per-domain quota in force.
    pub fn quota(&self) -> Quota {
        self.quota
    }

    /// Number of nodes currently in the live tree.
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Direct access to the live tree (read-only), for diagnostics.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    fn parse(path: &str) -> Result<Path> {
        Path::parse(path)
    }

    fn txn_mut(&mut self, id: TxId) -> Result<&mut Transaction> {
        self.transactions
            .get_mut(&id.0)
            .ok_or(Error::UnknownTransaction(id.0))
    }

    fn check_node_quota(&self, dom: DomId) -> Result<()> {
        if dom.is_privileged() {
            return Ok(());
        }
        if self.owned_nodes(dom) >= self.quota.max_nodes {
            return Err(Error::QuotaExceeded("nodes"));
        }
        Ok(())
    }

    /// Nodes currently owned by `dom`, from the incrementally maintained
    /// count (O(log domains), not O(store size)).
    pub fn owned_nodes(&self, dom: DomId) -> usize {
        self.owned.get(&dom.0).copied().unwrap_or(0)
    }

    /// Net node-ownership change per domain implied by `diff`: creations,
    /// removals, and ownership transfers via permission changes (dom0
    /// handing a guest its home directory). Shared by the commit-time
    /// quota check and the post-mutation bookkeeping so the two can never
    /// drift.
    fn owner_deltas(diff: &TreeDiff, old: &Tree, new: &Tree) -> BTreeMap<u32, isize> {
        let mut delta: BTreeMap<u32, isize> = BTreeMap::new();
        for (_, owner) in &diff.added {
            *delta.entry(owner.0).or_insert(0) += 1;
        }
        for (_, owner) in &diff.removed {
            *delta.entry(owner.0).or_insert(0) -= 1;
        }
        for path in &diff.perms_changed {
            #[expect(
                clippy::expect_used,
                reason = "the diff reported this path, so the pre-merge tree holds it"
            )]
            let old_owner = old
                .get(path)
                .expect("perms-changed node existed")
                .perms
                .owner();
            #[expect(
                clippy::expect_used,
                reason = "the diff reported this path, so the merged tree holds it"
            )]
            let new_owner = new
                .get(path)
                .expect("perms-changed node exists")
                .perms
                .owner();
            if old_owner != new_owner {
                *delta.entry(old_owner.0).or_insert(0) -= 1;
                *delta.entry(new_owner.0).or_insert(0) += 1;
            }
        }
        delta
    }

    /// Enforce the node quota at commit time: per-op checks inside the
    /// transaction ran against the store as it was *then*, so the net
    /// ownership delta of the merged result must be re-checked against the
    /// counts as they are *now* (otherwise N overlapping transactions could
    /// each pass the per-op check and overshoot the limit by N).
    fn check_commit_quota(&self, diff: &TreeDiff, merged: &Tree) -> Result<()> {
        for (dom, gained) in Self::owner_deltas(diff, &self.tree, merged) {
            if gained > 0
                && !DomId(dom).is_privileged()
                && self.owned_nodes(DomId(dom)) + gained as usize > self.quota.max_nodes
            {
                return Err(Error::QuotaExceeded("nodes"));
            }
        }
        Ok(())
    }

    /// Settle the bookkeeping after a mutation of the live tree, given the
    /// structural diff from `before`: fold ownership changes into the
    /// per-domain quota counts and (when `fire` is set) fire one watch
    /// event per path that actually changed in the committed tree.
    /// `also_fire` unconditionally fires one extra path even if it did not
    /// semantically change — direct ops keep real xenstored's fire-on-every-
    /// write semantics (the touch-a-key-to-notify pattern), while
    /// transactional commits pass `None` and fire the net diff only.
    fn settle(&mut self, diff: &TreeDiff, before: &Tree, fire: bool, also_fire: Option<&Path>) {
        for (dom, delta) in Self::owner_deltas(diff, before, &self.tree) {
            let count = self.owned.entry(dom).or_insert(0);
            *count = count.saturating_add_signed(delta);
        }
        if fire {
            let changed = diff.changed_paths();
            for path in &changed {
                self.stats.watch_events += self.watches.fire(path) as u64;
            }
            if let Some(path) = also_fire {
                if !changed.contains(path) {
                    self.stats.watch_events += self.watches.fire(path) as u64;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Read a value.
    pub fn read(&mut self, dom: DomId, tx: Option<TxId>, path: &str) -> Result<Vec<u8>> {
        self.stats.ops += 1;
        let path = Self::parse(path)?;
        match tx {
            None => self.tree.read(dom, &path),
            Some(id) => {
                let txn = self.txn_mut(id)?;
                if txn.dom != dom {
                    return Err(Error::PermissionDenied(path.to_string()));
                }
                txn.note_read(&path);
                txn.snapshot.read(dom, &path)
            }
        }
    }

    /// Read a value as a UTF-8 string (lossy).
    pub fn read_string(&mut self, dom: DomId, tx: Option<TxId>, path: &str) -> Result<String> {
        Ok(String::from_utf8_lossy(&self.read(dom, tx, path)?).into_owned())
    }

    /// True if the path exists (without error on absence).
    pub fn exists(&mut self, dom: DomId, tx: Option<TxId>, path: &str) -> Result<bool> {
        match self.read(dom, tx, path) {
            Ok(_) => Ok(true),
            Err(Error::NoEntry(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// List a node's children.
    pub fn directory(&mut self, dom: DomId, tx: Option<TxId>, path: &str) -> Result<Vec<String>> {
        self.stats.ops += 1;
        let path = Self::parse(path)?;
        match tx {
            None => self.tree.directory(dom, &path),
            Some(id) => {
                let txn = self.txn_mut(id)?;
                if txn.dom != dom {
                    return Err(Error::PermissionDenied(path.to_string()));
                }
                txn.note_dir_read(&path);
                txn.snapshot.directory(dom, &path)
            }
        }
    }

    /// Read a node's permissions.
    pub fn get_perms(&mut self, dom: DomId, tx: Option<TxId>, path: &str) -> Result<Permissions> {
        self.stats.ops += 1;
        let path = Self::parse(path)?;
        match tx {
            None => self.tree.get_perms(dom, &path),
            Some(id) => {
                let txn = self.txn_mut(id)?;
                txn.note_read(&path);
                txn.snapshot.get_perms(dom, &path)
            }
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    fn apply_live(&mut self, dom: DomId, op: TxnOp) -> Result<()> {
        // O(1) pre-image snapshot; the post-op structural diff drives both
        // watch delivery and quota accounting.
        let before = self.tree.clone();
        let result = match &op {
            TxnOp::Write { path, value } => self.tree.write(dom, path, value),
            TxnOp::Mkdir { path } => self.tree.mkdir(dom, path),
            TxnOp::Rm { path } => self.tree.rm(dom, path),
            TxnOp::SetPerms { path, perms } => self.tree.set_perms(dom, path, perms.clone()),
        };
        // Settle quota counts even on failure (a failed deep write may have
        // created some ancestors); watches fire only for completed ops —
        // and always for the op's own path, even when the op was a no-op
        // (same-value write, mkdir of an existing node), as in the real
        // protocol.
        let diff = Tree::diff(&before, &self.tree);
        self.settle(&diff, &before, result.is_ok(), Some(op.path()));
        result
    }

    fn apply(&mut self, dom: DomId, tx: Option<TxId>, op: TxnOp) -> Result<()> {
        self.stats.ops += 1;
        match tx {
            None => self.apply_live(dom, op),
            Some(id) => {
                let txn = self.txn_mut(id)?;
                if txn.dom != dom {
                    return Err(Error::PermissionDenied(op.path().to_string()));
                }
                txn.apply(op)
            }
        }
    }

    /// Write a value (creating the node and missing ancestors if needed).
    pub fn write(&mut self, dom: DomId, tx: Option<TxId>, path: &str, value: &[u8]) -> Result<()> {
        let path = Self::parse(path)?;
        if !self.tree.exists(&path) {
            self.check_node_quota(dom)?;
        }
        self.apply(
            dom,
            tx,
            TxnOp::Write {
                path,
                value: value.to_vec(),
            },
        )
    }

    /// Create an empty node.
    pub fn mkdir(&mut self, dom: DomId, tx: Option<TxId>, path: &str) -> Result<()> {
        let path = Self::parse(path)?;
        if !self.tree.exists(&path) {
            self.check_node_quota(dom)?;
        }
        self.apply(dom, tx, TxnOp::Mkdir { path })
    }

    /// Remove a subtree.
    pub fn rm(&mut self, dom: DomId, tx: Option<TxId>, path: &str) -> Result<()> {
        let path = Self::parse(path)?;
        self.apply(dom, tx, TxnOp::Rm { path })
    }

    /// Replace a node's permissions.
    pub fn set_perms(
        &mut self,
        dom: DomId,
        tx: Option<TxId>,
        path: &str,
        perms: Permissions,
    ) -> Result<()> {
        let path = Self::parse(path)?;
        self.apply(dom, tx, TxnOp::SetPerms { path, perms })
    }

    // ------------------------------------------------------------------
    // Watches
    // ------------------------------------------------------------------

    /// Register a watch on a subtree.
    pub fn watch(&mut self, dom: DomId, path: &str, token: &str) -> Result<()> {
        if !dom.is_privileged() && self.watches.count_for(dom) >= self.quota.max_watches {
            return Err(Error::QuotaExceeded("watches"));
        }
        let path = Self::parse(path)?;
        self.watches.watch(dom, path, token)
    }

    /// Remove a previously registered watch.
    pub fn unwatch(&mut self, dom: DomId, path: &str, token: &str) -> Result<()> {
        let path = Self::parse(path)?;
        self.watches.unwatch(dom, &path, token)
    }

    /// Drain pending watch events for a domain.
    pub fn take_watch_events(&mut self, dom: DomId) -> Vec<WatchEvent> {
        self.watches.take_events(dom)
    }

    /// Number of watch events queued for a domain.
    pub fn pending_watch_events(&self, dom: DomId) -> usize {
        self.watches.pending(dom)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Open a transaction.
    pub fn transaction_start(&mut self, dom: DomId) -> Result<TxId> {
        let open_for_dom = self.transactions.values().filter(|t| t.dom == dom).count();
        if !dom.is_privileged() && open_for_dom >= self.quota.max_transactions {
            return Err(Error::QuotaExceeded("transactions"));
        }
        let id = self.next_tx_id;
        self.next_tx_id = self.next_tx_id.wrapping_add(1).max(1);
        self.transactions
            .insert(id, Transaction::begin(id, dom, &self.tree));
        Ok(TxId(id))
    }

    /// End a transaction. With `commit == false` the transaction is simply
    /// discarded. With `commit == true` the configured engine decides whether
    /// the batch applies; a conflicting commit returns [`Error::Again`] and
    /// the caller is expected to retry the whole transaction.
    pub fn transaction_end(&mut self, dom: DomId, tx: TxId, commit: bool) -> Result<()> {
        let txn = self
            .transactions
            .remove(&tx.0)
            .ok_or(Error::UnknownTransaction(tx.0))?;
        if txn.dom != dom {
            // Put it back: a foreign domain must not be able to close it.
            self.transactions.insert(tx.0, txn);
            return Err(Error::PermissionDenied(format!("transaction {}", tx.0)));
        }
        if !commit {
            self.stats.aborts += 1;
            return Ok(());
        }
        if txn.is_read_only() {
            self.stats.commits += 1;
            return Ok(());
        }
        match self.engine.reconcile(&self.tree, &txn) {
            Reconcile::Conflict { .. } => {
                self.stats.conflicts += 1;
                Err(Error::Again)
            }
            Reconcile::Commit => {
                // Three-way merge of the transaction's net effect onto an
                // O(1) scratch copy of the live tree: a merge that fails
                // part-way (e.g. a concurrent permission revocation on a
                // parent) never mutates live state, preserving commit
                // atomicity. Watches fire from the committed merged tree:
                // one event per path that actually changed, in
                // deterministic order.
                let mut merged = self.tree.clone();
                txn.merge_onto(&mut merged)?;
                // One structural diff serves both the commit-time quota
                // check and the post-swap bookkeeping.
                let diff = Tree::diff(&self.tree, &merged);
                self.check_commit_quota(&diff, &merged)?;
                let before = std::mem::replace(&mut self.tree, merged);
                self.settle(&diff, &before, true, None);
                self.stats.commits += 1;
                if before.generation() != txn.start_gen {
                    // The base moved underneath the transaction and we
                    // committed anyway — a merge, not a serial replay.
                    self.stats.merged += 1;
                }
                Ok(())
            }
        }
    }

    /// Number of transactions currently open.
    pub fn open_transactions(&self) -> usize {
        self.transactions.len()
    }

    /// Convenience: run `body` inside a transaction, retrying on `EAGAIN`
    /// up to `max_retries` times. Returns the number of attempts made.
    pub fn with_transaction<F>(&mut self, dom: DomId, max_retries: u32, mut body: F) -> Result<u32>
    where
        F: FnMut(&mut XenStore, TxId) -> Result<()>,
    {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let tx = self.transaction_start(dom)?;
            if let Err(e) = body(self, tx) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "the body's error is the one to report; aborting the transaction this loop just opened only drops its staged writes"
                )]
                let _ = self.transaction_end(dom, tx, false);
                return Err(e);
            }
            match self.transaction_end(dom, tx, true) {
                Ok(()) => return Ok(attempts),
                Err(Error::Again) if attempts <= max_retries => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Remove everything a domain owns and its watches — called when a
    /// domain is destroyed.
    pub fn domain_destroyed(&mut self, dom: DomId) {
        self.watches.remove_domain(dom);
        self.transactions.retain(|_, t| t.dom != dom);
        // Remove the conventional per-domain directory if present.
        let home = Path::domain_home(dom.0);
        if self.tree.exists(&home) {
            let before = self.tree.clone();
            #[expect(
                clippy::let_underscore_must_use,
                reason = "existence was checked just above; a failed rm only skips optional cleanup of the home dir"
            )]
            let _ = self.tree.rm(DomId::DOM0, &home);
            let diff = Tree::diff(&before, &self.tree);
            self.settle(&diff, &before, true, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perms::PermLevel;

    fn store() -> XenStore {
        XenStore::new(EngineKind::JitsuMerge)
    }

    #[test]
    fn stats_rates_are_well_formed() {
        let empty = StoreStats::default();
        assert_eq!(empty.abort_rate(), 0.0);
        assert_eq!(empty.merge_rate(), 0.0);
        let stats = StoreStats {
            commits: 8,
            merged: 6,
            conflicts: 2,
            ..StoreStats::default()
        };
        assert!((stats.abort_rate() - 0.2).abs() < 1e-12);
        assert!((stats.merge_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn basic_read_write() {
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/local/domain/3/name", b"http")
            .unwrap();
        assert_eq!(
            xs.read(DomId::DOM0, None, "/local/domain/3/name").unwrap(),
            b"http"
        );
        assert_eq!(
            xs.read_string(DomId::DOM0, None, "/local/domain/3/name")
                .unwrap(),
            "http"
        );
        assert!(xs
            .exists(DomId::DOM0, None, "/local/domain/3/name")
            .unwrap());
        assert!(!xs.exists(DomId::DOM0, None, "/local/domain/9").unwrap());
        assert_eq!(
            xs.directory(DomId::DOM0, None, "/local/domain").unwrap(),
            vec!["3"]
        );
        assert!(xs.stats().ops >= 5);
    }

    #[test]
    fn invalid_paths_are_rejected() {
        let mut xs = store();
        assert!(matches!(
            xs.write(DomId::DOM0, None, "not-absolute", b"x"),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            xs.read(DomId::DOM0, None, "/bad path"),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn transaction_commit_applies_batch_atomically() {
        let mut xs = store();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/conduit/http_server", b"3")
            .unwrap();
        xs.write(DomId::DOM0, Some(t), "/conduit/flows/1", b"(connecting)")
            .unwrap();
        // Not visible outside the transaction yet.
        assert!(!xs
            .exists(DomId::DOM0, None, "/conduit/http_server")
            .unwrap());
        // Visible inside.
        assert!(xs
            .exists(DomId::DOM0, Some(t), "/conduit/http_server")
            .unwrap());
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert!(xs
            .exists(DomId::DOM0, None, "/conduit/http_server")
            .unwrap());
        assert_eq!(xs.stats().commits, 1);
        assert_eq!(xs.open_transactions(), 0);
    }

    #[test]
    fn transaction_abort_discards_batch() {
        let mut xs = store();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/a", b"1").unwrap();
        xs.transaction_end(DomId::DOM0, t, false).unwrap();
        assert!(!xs.exists(DomId::DOM0, None, "/a").unwrap());
        assert_eq!(xs.stats().aborts, 1);
    }

    #[test]
    fn unknown_transaction_is_an_error() {
        let mut xs = store();
        assert!(matches!(
            xs.read(DomId::DOM0, Some(TxId(99)), "/a"),
            Err(Error::UnknownTransaction(99))
        ));
        assert!(matches!(
            xs.transaction_end(DomId::DOM0, TxId(99), true),
            Err(Error::UnknownTransaction(99))
        ));
    }

    #[test]
    fn foreign_domain_cannot_use_anothers_transaction() {
        let mut xs = store();
        let t = xs.transaction_start(DomId(3)).unwrap();
        assert!(matches!(
            xs.write(DomId(7), Some(t), "/x", b"1"),
            Err(Error::PermissionDenied(_))
        ));
        assert!(matches!(
            xs.transaction_end(DomId(7), t, true),
            Err(Error::PermissionDenied(_))
        ));
        // The rightful owner can still close it.
        assert!(xs.transaction_end(DomId(3), t, false).is_ok());
    }

    #[test]
    fn conflicting_commit_returns_eagain() {
        let mut xs = XenStore::new(EngineKind::Serial);
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/a", b"in-txn").unwrap();
        // A concurrent direct write advances the store.
        xs.write(DomId::DOM0, None, "/other", b"x").unwrap();
        assert_eq!(xs.transaction_end(DomId::DOM0, t, true), Err(Error::Again));
        assert_eq!(xs.stats().conflicts, 1);
        // The live tree did not take the transaction's write.
        assert!(!xs.exists(DomId::DOM0, None, "/a").unwrap());
    }

    #[test]
    fn jitsu_engine_allows_parallel_domain_creation_through_store() {
        let mut xs = store();
        // Two "toolstack threads" each build a domain in a transaction.
        let t1 = xs.transaction_start(DomId::DOM0).unwrap();
        let t2 = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t1), "/local/domain/5/name", b"u5")
            .unwrap();
        xs.write(DomId::DOM0, Some(t2), "/local/domain/6/name", b"u6")
            .unwrap();
        xs.transaction_end(DomId::DOM0, t1, true).unwrap();
        // With the Jitsu merge the second commit also succeeds.
        xs.transaction_end(DomId::DOM0, t2, true).unwrap();
        assert!(xs
            .exists(DomId::DOM0, None, "/local/domain/5/name")
            .unwrap());
        assert!(xs
            .exists(DomId::DOM0, None, "/local/domain/6/name")
            .unwrap());
        assert_eq!(xs.stats().conflicts, 0);
    }

    #[test]
    fn merge_engine_conflicts_on_parallel_domain_creation() {
        let mut xs = XenStore::new(EngineKind::Merge);
        let t1 = xs.transaction_start(DomId::DOM0).unwrap();
        let t2 = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t1), "/local/domain/5/name", b"u5")
            .unwrap();
        xs.write(DomId::DOM0, Some(t2), "/local/domain/6/name", b"u6")
            .unwrap();
        xs.transaction_end(DomId::DOM0, t1, true).unwrap();
        assert_eq!(xs.transaction_end(DomId::DOM0, t2, true), Err(Error::Again));
    }

    #[test]
    fn read_only_transactions_always_commit() {
        let mut xs = XenStore::new(EngineKind::Serial);
        xs.write(DomId::DOM0, None, "/a", b"1").unwrap();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        let _ = xs.read(DomId::DOM0, Some(t), "/a").unwrap();
        // Concurrent write would normally trip the serial engine.
        xs.write(DomId::DOM0, None, "/b", b"2").unwrap();
        assert!(xs.transaction_end(DomId::DOM0, t, true).is_ok());
    }

    #[test]
    fn with_transaction_retries_until_success() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        xs.write(DomId::DOM0, None, "/counter", b"0").unwrap();
        let attempts = xs
            .with_transaction(DomId::DOM0, 5, |xs, t| {
                let v = xs.read_string(DomId::DOM0, Some(t), "/counter")?;
                let n: u64 = v.parse().unwrap_or(0);
                xs.write(
                    DomId::DOM0,
                    Some(t),
                    "/counter",
                    (n + 1).to_string().as_bytes(),
                )
            })
            .unwrap();
        assert_eq!(attempts, 1);
        assert_eq!(xs.read_string(DomId::DOM0, None, "/counter").unwrap(), "1");
    }

    #[test]
    fn watches_fire_on_direct_and_transactional_writes() {
        let mut xs = store();
        xs.mkdir(DomId::DOM0, None, "/conduit/http_server/listen")
            .unwrap();
        xs.watch(DomId(3), "/conduit/http_server/listen", "listen-token")
            .unwrap();
        // Drain the initial synthetic event.
        assert_eq!(xs.take_watch_events(DomId(3)).len(), 1);

        xs.write(DomId::DOM0, None, "/conduit/http_server/listen/conn1", b"7")
            .unwrap();
        let evs = xs.take_watch_events(DomId(3));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path.to_string(), "/conduit/http_server/listen/conn1");
        assert_eq!(evs[0].token, "listen-token");

        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(
            DomId::DOM0,
            Some(t),
            "/conduit/http_server/listen/conn2",
            b"9",
        )
        .unwrap();
        assert_eq!(
            xs.pending_watch_events(DomId(3)),
            0,
            "no events until commit"
        );
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!(xs.take_watch_events(DomId(3)).len(), 1);
    }

    #[test]
    fn quotas_are_enforced_for_guests() {
        let mut xs = XenStore::with_quota(EngineKind::JitsuMerge, Quota::tiny());
        // Give dom7 a writable home.
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        // Node quota.
        let mut hit_quota = false;
        for i in 0..20 {
            match xs.write(DomId(7), None, &format!("/local/domain/7/k{i}"), b"v") {
                Ok(()) => {}
                Err(Error::QuotaExceeded("nodes")) => {
                    hit_quota = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(hit_quota, "node quota must eventually trip");
        // Watch quota.
        xs.watch(DomId(7), "/local/domain/7", "w1").unwrap();
        xs.watch(DomId(7), "/local/domain/7/a", "w2").unwrap();
        assert_eq!(
            xs.watch(DomId(7), "/local/domain/7/b", "w3"),
            Err(Error::QuotaExceeded("watches"))
        );
        // Transaction quota.
        let _t1 = xs.transaction_start(DomId(7)).unwrap();
        assert_eq!(
            xs.transaction_start(DomId(7)).unwrap_err(),
            Error::QuotaExceeded("transactions")
        );
        // dom0 is exempt.
        for _ in 0..5 {
            xs.transaction_start(DomId::DOM0).unwrap();
        }
    }

    #[test]
    fn guest_perms_enforced_through_store() {
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/secret", b"s").unwrap();
        assert!(matches!(
            xs.read(DomId(5), None, "/secret"),
            Err(Error::PermissionDenied(_))
        ));
        xs.set_perms(
            DomId::DOM0,
            None,
            "/secret",
            Permissions::with_default(DomId::DOM0, PermLevel::Read),
        )
        .unwrap();
        assert!(xs.read(DomId(5), None, "/secret").is_ok());
    }

    #[test]
    fn domain_destroyed_cleans_up() {
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/local/domain/9/name", b"gone")
            .unwrap();
        xs.watch(DomId(9), "/local/domain/9", "t").unwrap();
        let _t = xs.transaction_start(DomId(9)).unwrap();
        xs.domain_destroyed(DomId(9));
        assert!(!xs.exists(DomId::DOM0, None, "/local/domain/9").unwrap());
        assert_eq!(xs.open_transactions(), 0);
        assert_eq!(xs.pending_watch_events(DomId(9)), 0);
    }

    #[test]
    fn merged_commits_are_counted_separately_from_serial_ones() {
        let mut xs = store();
        // A commit against an unmoved base is not a merge.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/a", b"1").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!(xs.stats().commits, 1);
        assert_eq!(xs.stats().merged, 0);
        // A commit after a concurrent write merges.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/b", b"2").unwrap();
        xs.write(DomId::DOM0, None, "/c", b"3").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!(xs.stats().commits, 2);
        assert_eq!(xs.stats().merged, 1);
        assert!(xs.exists(DomId::DOM0, None, "/b").unwrap());
        assert!(xs.exists(DomId::DOM0, None, "/c").unwrap());
    }

    #[test]
    fn read_of_missing_path_conflicts_with_concurrent_create_through_store() {
        // Regression for the read-set bugfix, end to end: `read` (and
        // `exists`) on a nonexistent node records the dependency, and a
        // concurrent create of that path aborts the commit.
        let mut xs = store();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        assert!(!xs.exists(DomId::DOM0, Some(t), "/claim/slot").unwrap());
        xs.write(DomId::DOM0, Some(t), "/winner", b"me").unwrap();
        // Concurrent create of the path the transaction saw missing.
        xs.write(DomId::DOM0, None, "/claim/slot", b"them").unwrap();
        assert_eq!(xs.transaction_end(DomId::DOM0, t, true), Err(Error::Again));
        assert!(!xs.exists(DomId::DOM0, None, "/winner").unwrap());
        // The same shape with the absent path left alone commits fine.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        assert!(!xs.exists(DomId::DOM0, Some(t), "/claim/other").unwrap());
        xs.write(DomId::DOM0, Some(t), "/winner", b"me").unwrap();
        xs.write(DomId::DOM0, None, "/unrelated", b"x").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!(xs.read(DomId::DOM0, None, "/winner").unwrap(), b"me");
    }

    #[test]
    fn incremental_owned_counts_match_the_reference_walk() {
        let mut xs = XenStore::with_quota(EngineKind::JitsuMerge, Quota::default());
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        for i in 0..6 {
            xs.write(DomId(7), None, &format!("/local/domain/7/deep/k{i}"), b"v")
                .unwrap();
        }
        xs.rm(DomId(7), None, "/local/domain/7/deep/k0").unwrap();
        // Also through a transaction (counts settle at commit).
        let t = xs.transaction_start(DomId(7)).unwrap();
        xs.write(DomId(7), Some(t), "/local/domain/7/txn", b"v")
            .unwrap();
        xs.transaction_end(DomId(7), t, true).unwrap();
        for dom in [DomId::DOM0, DomId(7)] {
            assert_eq!(
                xs.owned_nodes(dom),
                xs.tree().owned_count(dom),
                "cached count for {dom:?} must match the O(n) reference walk"
            );
        }
        // Subtree removal settles every removed descendant.
        xs.rm(DomId::DOM0, None, "/local/domain/7").unwrap();
        assert_eq!(xs.owned_nodes(DomId(7)), 0);
        assert_eq!(xs.tree().owned_count(DomId(7)), 0);
    }

    #[test]
    fn failed_merges_leave_the_live_tree_untouched() {
        // A guest transaction removes one of its nodes and creates another
        // under a directory whose write access dom0 revokes concurrently.
        // The revocation bumps only the parent's modified_gen, so neither
        // merge engine conflicts — the merge itself fails with
        // PermissionDenied, and the earlier removal must not leak into the
        // live tree (the commit swaps in the merged copy only on success).
        let mut xs = store();
        xs.mkdir(DomId::DOM0, None, "/shared").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/shared",
            Permissions::with_default(DomId::DOM0, PermLevel::Write),
        )
        .unwrap();
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        xs.write(DomId(7), None, "/local/domain/7/old", b"x")
            .unwrap();

        let t = xs.transaction_start(DomId(7)).unwrap();
        xs.rm(DomId(7), Some(t), "/local/domain/7/old").unwrap();
        xs.write(DomId(7), Some(t), "/shared/claim", b"7").unwrap();
        // Concurrently dom0 revokes the world-writable bit on /shared.
        xs.set_perms(
            DomId::DOM0,
            None,
            "/shared",
            Permissions::owned_by(DomId::DOM0),
        )
        .unwrap();
        let err = xs.transaction_end(DomId(7), t, true).unwrap_err();
        assert!(matches!(err, Error::PermissionDenied(_)), "{err:?}");
        // Nothing from the failed merge reached the live tree.
        assert!(xs.exists(DomId::DOM0, None, "/local/domain/7/old").unwrap());
        assert!(!xs.exists(DomId::DOM0, None, "/shared/claim").unwrap());
        assert_eq!(xs.stats().commits, 0);
    }

    #[test]
    fn recreated_nodes_keep_their_snapshot_permissions() {
        // dom0 overwrites a guest-owned node inside a transaction while the
        // guest concurrently removes it. The merge recreates the node (the
        // remove-then-write serial order) — with the guest's ownership, not
        // dom0-derived creation perms.
        let mut xs = store();
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        xs.write(DomId(7), None, "/local/domain/7/k", b"v1")
            .unwrap();

        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/local/domain/7/k", b"v2")
            .unwrap();
        xs.rm(DomId(7), None, "/local/domain/7/k").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        let node = xs.tree().get(&Path::parse("/local/domain/7/k").unwrap());
        assert_eq!(
            node.expect("recreated by the merge").perms.owner(),
            DomId(7),
            "the snapshot's ownership must survive recreation"
        );
        // And the incremental quota counts stayed consistent.
        assert_eq!(xs.owned_nodes(DomId(7)), xs.tree().owned_count(DomId(7)));
    }

    #[test]
    fn node_quota_is_enforced_at_commit_against_current_counts() {
        // The per-op check inside the transaction ran when the guest still
        // had headroom; by commit time direct writes have used it up. The
        // commit must not overshoot the quota.
        let mut xs = XenStore::with_quota(EngineKind::JitsuMerge, Quota::tiny());
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        // Fill to one below the limit (the home dir counts too).
        let max = Quota::tiny().max_nodes;
        for i in 0..max - 2 {
            xs.write(DomId(7), None, &format!("/local/domain/7/k{i}"), b"v")
                .unwrap();
        }
        assert_eq!(xs.owned_nodes(DomId(7)), max - 1);
        // The transactional write passes its per-op check (one slot left)…
        let t = xs.transaction_start(DomId(7)).unwrap();
        xs.write(DomId(7), Some(t), "/local/domain/7/txn", b"v")
            .unwrap();
        // …but a direct write consumes that slot before the commit.
        xs.write(DomId(7), None, "/local/domain/7/direct", b"v")
            .unwrap();
        assert_eq!(
            xs.transaction_end(DomId(7), t, true),
            Err(Error::QuotaExceeded("nodes")),
            "commit must re-check the quota against current counts"
        );
        assert!(!xs.exists(DomId::DOM0, None, "/local/domain/7/txn").unwrap());
        assert_eq!(xs.owned_nodes(DomId(7)), max);
    }

    #[test]
    fn merge_never_clobbers_a_concurrently_created_implicit_ancestor() {
        // Txn writes /a/b, creating /a implicitly (empty scaffold in its
        // snapshot); concurrently another client writes a value to /a. The
        // two creations merge — the commit must not reset /a to the
        // scaffold's empty value.
        let mut xs = store();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/a/b", b"child").unwrap();
        xs.write(DomId::DOM0, None, "/a", b"precious").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!(
            xs.read(DomId::DOM0, None, "/a").unwrap(),
            b"precious",
            "the concurrent value must survive the merge"
        );
        assert_eq!(xs.read(DomId::DOM0, None, "/a/b").unwrap(), b"child");
    }

    #[test]
    fn value_read_survives_a_later_directory_dependency_on_the_same_node() {
        // Txn reads /x then creates /x/y (which records a directory dep on
        // /x). The value dependency must not be downgraded away: a
        // concurrent value change to /x still conflicts, even on the Jitsu
        // engine which ignores pure child-list changes.
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/x", b"old").unwrap();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        assert_eq!(xs.read(DomId::DOM0, Some(t), "/x").unwrap(), b"old");
        xs.write(DomId::DOM0, Some(t), "/x/y", b"derived").unwrap();
        xs.write(DomId::DOM0, None, "/x", b"new").unwrap();
        assert_eq!(xs.transaction_end(DomId::DOM0, t, true), Err(Error::Again));
        assert!(!xs.exists(DomId::DOM0, None, "/x/y").unwrap());
    }

    #[test]
    fn direct_same_value_writes_still_fire_watches() {
        // The touch-a-key-to-notify pattern: a WRITE of an unchanged value
        // fires watches in the real protocol even though nothing changed
        // semantically.
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/svc/flag", b"1").unwrap();
        xs.watch(DomId(3), "/svc", "tok").unwrap();
        xs.take_watch_events(DomId(3));
        xs.write(DomId::DOM0, None, "/svc/flag", b"1").unwrap();
        let evs = xs.take_watch_events(DomId(3));
        assert_eq!(evs.len(), 1, "same-value write must still notify");
        assert_eq!(evs[0].path.to_string(), "/svc/flag");
        // mkdir of an existing node notifies too, and only once.
        xs.mkdir(DomId::DOM0, None, "/svc/flag").unwrap();
        assert_eq!(xs.take_watch_events(DomId(3)).len(), 1);
    }

    #[test]
    fn perms_change_on_a_concurrently_removed_node_stays_removed() {
        // The transaction only touched the node's permissions; the
        // concurrent remove wins (the write-then-remove serial order), and
        // the rest of the batch still lands.
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/a", b"1").unwrap();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.set_perms(
            DomId::DOM0,
            Some(t),
            "/a",
            Permissions::with_default(DomId::DOM0, PermLevel::Write),
        )
        .unwrap();
        xs.write(DomId::DOM0, Some(t), "/b", b"2").unwrap();
        xs.rm(DomId::DOM0, None, "/a").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert!(!xs.exists(DomId::DOM0, None, "/a").unwrap());
        assert_eq!(xs.read(DomId::DOM0, None, "/b").unwrap(), b"2");
    }

    #[test]
    fn transactional_watch_events_come_from_the_merged_diff() {
        // A transaction that writes the same path three times and also
        // creates-then-removes a scratch node produces events for the *net*
        // change only.
        let mut xs = store();
        xs.mkdir(DomId::DOM0, None, "/svc").unwrap();
        xs.watch(DomId(3), "/svc", "tok").unwrap();
        xs.take_watch_events(DomId(3));
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        for v in [b"1", b"2", b"3"] {
            xs.write(DomId::DOM0, Some(t), "/svc/state", v).unwrap();
        }
        xs.write(DomId::DOM0, Some(t), "/svc/scratch", b"tmp")
            .unwrap();
        xs.rm(DomId::DOM0, Some(t), "/svc/scratch").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        let evs = xs.take_watch_events(DomId(3));
        assert_eq!(evs.len(), 1, "one event per net-changed path: {evs:?}");
        assert_eq!(evs[0].path.to_string(), "/svc/state");
    }

    #[test]
    fn debug_format_mentions_engine() {
        let xs = store();
        let s = format!("{xs:?}");
        assert!(s.contains("JitsuMerge"));
    }
}
