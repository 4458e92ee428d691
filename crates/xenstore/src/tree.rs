//! The store tree: a permission-checked hierarchical value store with
//! generation tracking, built on persistent (structurally shared) nodes.
//!
//! `Tree` implements the data model shared by the live store and by
//! transaction snapshots. The root is held behind an [`Arc`], so cloning a
//! tree — which is how transaction snapshots are taken — is an O(1) pointer
//! copy regardless of store size. Mutations use *path copying*: only the
//! nodes from the root down to the mutated node are copied (and only when
//! they are still shared with a snapshot); every sibling subtree stays
//! shared. This is what makes transactions cheap enough to open per
//! toolstack RPC under boot-storm load.
//!
//! Every mutation advances a monotonically increasing *generation*; each
//! node remembers the generation of its last value change (`modified_gen`)
//! and of its last child-list change (`children_gen`). The transaction
//! reconciliation engines in [`crate::engine`] compare node generations
//! between a transaction's base snapshot and the live tree to decide, at
//! node granularity, whether concurrent commits conflict.
//!
//! [`Tree::diff`] computes the structural difference between two trees,
//! skipping shared subtrees in O(1) via pointer equality — the store uses it
//! to fire watches from the committed merged tree and to keep per-domain
//! quota accounting incremental.

use crate::error::{Error, Result};
use crate::node::{Node, MAX_VALUE_LEN};
use crate::path::Path;
use crate::perms::{Access, DomId, Permissions};
use std::sync::Arc;

/// A permission-checked hierarchical store with generation tracking.
///
/// Cloning a `Tree` is O(1): the clone shares every node with the original
/// until one of the two is mutated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    root: Arc<Node>,
    generation: u64,
}

/// The structural difference between two trees, as computed by
/// [`Tree::diff`]. Every list is in depth-first (sorted-by-component)
/// order, which for [`Path`]'s component-wise ordering means each list is
/// sorted (binary-searchable) and parents always precede their descendants
/// in `added` and `removed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeDiff {
    /// Nodes present in `new` but not in `old`, with their owning domain in
    /// `new`.
    pub added: Vec<(Path, DomId)>,
    /// Nodes present in `old` but not in `new`, with their owning domain in
    /// `old`. A removed subtree contributes every removed descendant.
    pub removed: Vec<(Path, DomId)>,
    /// Nodes present in both whose value differs.
    pub value_changed: Vec<Path>,
    /// Nodes present in both whose permissions differ.
    pub perms_changed: Vec<Path>,
}

impl TreeDiff {
    /// True if the two trees were semantically identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.value_changed.is_empty()
            && self.perms_changed.is_empty()
    }

    /// Total number of recorded changes (a node changing both value and
    /// permissions counts twice).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len() + self.value_changed.len() + self.perms_changed.len()
    }

    /// Every path that changed in any way, sorted and deduplicated — the
    /// set of paths the store fires watches for after a commit.
    pub fn changed_paths(&self) -> Vec<Path> {
        let mut paths: Vec<Path> = self
            .added
            .iter()
            .map(|(p, _)| p.clone())
            .chain(self.removed.iter().map(|(p, _)| p.clone()))
            .chain(self.value_changed.iter().cloned())
            .chain(self.perms_changed.iter().cloned())
            .collect();
        paths.sort();
        paths.dedup();
        paths
    }

    /// The topmost removed paths: removed nodes whose ancestors all still
    /// exist. Removing exactly these (as subtrees) reproduces every entry
    /// of `removed`. Linear: `removed` is emitted depth-first with each
    /// subtree contiguous and root-first, so a path belongs to the current
    /// root's subtree iff that root is a prefix of it.
    pub fn removed_roots(&self) -> Vec<&Path> {
        let mut roots: Vec<&Path> = Vec::new();
        for (path, _) in &self.removed {
            if !roots.last().is_some_and(|root| root.is_prefix_of(path)) {
                roots.push(path);
            }
        }
        roots
    }
}

impl Default for Tree {
    fn default() -> Self {
        Tree::new()
    }
}

impl Tree {
    /// Create a tree containing only a dom0-owned, world-readable root.
    pub fn new() -> Tree {
        let perms = Permissions::with_default(DomId::DOM0, crate::perms::PermLevel::Read);
        Tree {
            root: Arc::new(Node::new(perms, 0)),
            generation: 0,
        }
    }

    /// The current generation counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.root.subtree_size()
    }

    /// True if `self` and `other` share their root node allocation — the
    /// case immediately after a snapshot, before either side has mutated.
    /// A shared root means the snapshot copied *zero* nodes.
    pub fn shares_root_with(&self, other: &Tree) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// Number of nodes of `self` that are structurally shared (same
    /// allocation) with `other`. Together with [`Tree::node_count`] this
    /// measures how many nodes a sequence of mutations actually copied:
    /// `copied = node_count() - shared_node_count(snapshot)`.
    pub fn shared_node_count(&self, other: &Tree) -> usize {
        fn walk(a: &Arc<Node>, b: &Arc<Node>) -> usize {
            if Arc::ptr_eq(a, b) {
                return a.subtree_size();
            }
            let mut shared = 0;
            for (name, ca) in &a.children {
                if let Some(cb) = b.children.get(name) {
                    shared += walk(ca, cb);
                }
            }
            shared
        }
        walk(&self.root, &other.root)
    }

    fn bump(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// Immutable lookup.
    pub fn get(&self, path: &Path) -> Option<&Node> {
        let mut node = &*self.root;
        for comp in path.components() {
            node = node.children.get(comp)?;
        }
        Some(node)
    }

    /// Mutable lookup via path copying: every node from the root to `path`
    /// that is still shared with a snapshot is copied (shallowly — its child
    /// *pointers* are cloned, not the subtrees), so the mutation never
    /// disturbs other trees holding the old nodes.
    fn get_mut(&mut self, path: &Path) -> Option<&mut Node> {
        let mut node = Arc::make_mut(&mut self.root);
        for comp in path.components() {
            let child = node.children.get_mut(comp)?;
            node = Arc::make_mut(child);
        }
        Some(node)
    }

    /// True if the path names an existing node.
    pub fn exists(&self, path: &Path) -> bool {
        self.get(path).is_some()
    }

    fn check(&self, dom: DomId, path: &Path, access: Access) -> Result<()> {
        match self.get(path) {
            None => Err(Error::NoEntry(path.to_string())),
            Some(node) => {
                if node.perms.check(dom, access) {
                    Ok(())
                } else {
                    Err(Error::PermissionDenied(path.to_string()))
                }
            }
        }
    }

    /// Read a node's value.
    pub fn read(&self, dom: DomId, path: &Path) -> Result<Vec<u8>> {
        self.check(dom, path, Access::Read)?;
        #[expect(
            clippy::expect_used,
            reason = "presence checked by the exists guard above"
        )]
        Ok(self.get(path).expect("checked above").value.clone())
    }

    /// List a node's children (sorted).
    pub fn directory(&self, dom: DomId, path: &Path) -> Result<Vec<String>> {
        self.check(dom, path, Access::Read)?;
        #[expect(
            clippy::expect_used,
            reason = "presence checked by the exists guard above"
        )]
        Ok(self.get(path).expect("checked above").child_names())
    }

    /// Read a node's permissions.
    pub fn get_perms(&self, dom: DomId, path: &Path) -> Result<Permissions> {
        self.check(dom, path, Access::Read)?;
        #[expect(
            clippy::expect_used,
            reason = "presence checked by the exists guard above"
        )]
        Ok(self.get(path).expect("checked above").perms.clone())
    }

    /// Replace a node's permissions. Only the node owner (or dom0) may do so.
    pub fn set_perms(&mut self, dom: DomId, path: &Path, perms: Permissions) -> Result<()> {
        let node = self
            .get(path)
            .ok_or_else(|| Error::NoEntry(path.to_string()))?;
        if !dom.is_privileged() && node.perms.owner() != dom {
            return Err(Error::PermissionDenied(path.to_string()));
        }
        let gen = self.bump();
        #[expect(
            clippy::expect_used,
            reason = "presence checked by the exists guard above"
        )]
        let node = self.get_mut(path).expect("checked above");
        node.perms = perms;
        node.modified_gen = gen;
        Ok(())
    }

    /// Determine the permissions a new node at `path` created by `dom`
    /// should carry, honouring the create-restricted extension of its
    /// parent. Returns an error if the creation is not permitted.
    fn new_child_perms(&self, dom: DomId, parent: &Path) -> Result<Permissions> {
        let parent_node = self
            .get(parent)
            .ok_or_else(|| Error::NoEntry(parent.to_string()))?;
        if parent_node.perms.check(dom, Access::Write) {
            // Normal case: the creator owns what it creates; non-privileged
            // creations are owned by the creating domain.
            Ok(Permissions::owned_by(if dom.is_privileged() {
                parent_node.perms.owner()
            } else {
                dom
            }))
        } else if parent_node.perms.is_create_restricted() {
            // Jitsu extension (§3.2.3): anyone may create, but the new key is
            // visible only to the directory owner and the creator.
            Ok(parent_node.perms.restricted_child_perms(dom))
        } else {
            Err(Error::PermissionDenied(parent.to_string()))
        }
    }

    /// Create any missing ancestors of `path` (excluding `path` itself),
    /// returning an error if an ancestor cannot be created.
    fn ensure_parents(&mut self, dom: DomId, path: &Path) -> Result<()> {
        let ancestors = path.ancestry();
        // Skip the root (always exists) and the final element (the target).
        for p in &ancestors[..ancestors.len().saturating_sub(1)] {
            if !self.exists(p) {
                #[expect(
                    clippy::expect_used,
                    reason = "the loop skips the root, so every ancestor has a parent"
                )]
                let parent = p.parent().expect("non-root ancestor has a parent");
                let perms = self.new_child_perms(dom, &parent)?;
                let gen = self.bump();
                #[expect(
                    clippy::expect_used,
                    reason = "ensure_parents created this ancestor just above"
                )]
                let parent_node = self.get_mut(&parent).expect("parent exists");
                #[expect(clippy::expect_used, reason = "non-root paths always have a basename")]
                parent_node.children.insert(
                    p.basename().expect("non-root").to_string(),
                    Arc::new(Node::new(perms, gen)),
                );
                parent_node.children_gen = gen;
            }
        }
        Ok(())
    }

    /// Write a value, creating the node (and any missing ancestors) if
    /// necessary, as the real store does.
    pub fn write(&mut self, dom: DomId, path: &Path, value: &[u8]) -> Result<()> {
        if path.is_root() {
            return Err(Error::Invalid("cannot write to the root node".into()));
        }
        if value.len() > MAX_VALUE_LEN {
            return Err(Error::Invalid(format!(
                "value larger than {MAX_VALUE_LEN} bytes"
            )));
        }
        if self.exists(path) {
            self.check(dom, path, Access::Write)?;
            let gen = self.bump();
            #[expect(
                clippy::expect_used,
                reason = "presence checked by the exists guard above"
            )]
            let node = self.get_mut(path).expect("checked above");
            node.value = value.to_vec();
            node.modified_gen = gen;
            return Ok(());
        }
        self.ensure_parents(dom, path)?;
        #[expect(
            clippy::expect_used,
            reason = "write rejects the root path before this point"
        )]
        let parent = path.parent().expect("non-root");
        let perms = self.new_child_perms(dom, &parent)?;
        let gen = self.bump();
        #[expect(
            clippy::expect_used,
            reason = "ensure_parents created the parent spine"
        )]
        let parent_node = self.get_mut(&parent).expect("parents ensured");
        let mut node = Node::new(perms, gen);
        node.value = value.to_vec();
        #[expect(clippy::expect_used, reason = "non-root paths always have a basename")]
        parent_node.children.insert(
            path.basename().expect("non-root").to_string(),
            Arc::new(node),
        );
        parent_node.children_gen = gen;
        Ok(())
    }

    /// Create an empty node (no-op if it already exists, as in the real
    /// protocol).
    pub fn mkdir(&mut self, dom: DomId, path: &Path) -> Result<()> {
        if path.is_root() {
            return Ok(());
        }
        if self.exists(path) {
            return Ok(());
        }
        self.write(dom, path, b"")
    }

    /// Remove a node and its entire subtree. Removing a missing node returns
    /// `ENOENT`; removing the root is invalid.
    pub fn rm(&mut self, dom: DomId, path: &Path) -> Result<()> {
        if path.is_root() {
            return Err(Error::Invalid("cannot remove the root node".into()));
        }
        if !self.exists(path) {
            return Err(Error::NoEntry(path.to_string()));
        }
        self.check(dom, path, Access::Write)?;
        #[expect(
            clippy::expect_used,
            reason = "rm rejects the root path before this point"
        )]
        let parent = path.parent().expect("non-root");
        let gen = self.bump();
        #[expect(
            clippy::expect_used,
            reason = "the child was found, so its parent is present"
        )]
        let parent_node = self.get_mut(&parent).expect("child exists so parent does");
        #[expect(clippy::expect_used, reason = "non-root paths always have a basename")]
        parent_node
            .children
            .remove(path.basename().expect("non-root"));
        parent_node.children_gen = gen;
        Ok(())
    }

    /// Count the nodes owned by each domain by walking the whole tree.
    ///
    /// This is the O(store) reference implementation; the store keeps an
    /// incremental count maintained from [`Tree::diff`]s on its hot path and
    /// uses this walk only in tests to cross-check it.
    pub fn owned_count(&self, dom: DomId) -> usize {
        fn walk(node: &Node, dom: DomId) -> usize {
            let own = usize::from(node.perms.owner() == dom);
            own + node.children.values().map(|c| walk(c, dom)).sum::<usize>()
        }
        walk(&self.root, dom)
    }

    /// Collect every path in the tree (depth-first, sorted by component) —
    /// used by tests and the structural diff in the Jitsu merge engine.
    pub fn all_paths(&self) -> Vec<Path> {
        fn walk(node: &Node, prefix: &Path, out: &mut Vec<Path>) {
            out.push(prefix.clone());
            for (name, child) in &node.children {
                #[expect(
                    clippy::expect_used,
                    reason = "child names were validated when inserted into the tree"
                )]
                let p = prefix.child(name).expect("stored names are valid");
                walk(child, &p, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &Path::root(), &mut out);
        out
    }

    /// Compute the structural difference from `old` to `new`.
    ///
    /// Subtrees shared between the two trees (same `Arc` allocation) are
    /// skipped without descending, so diffing a tree against a snapshot it
    /// was mutated from costs O(changed paths), not O(store size). On
    /// unrelated trees the diff degrades gracefully to a full semantic
    /// comparison (generation counters are ignored — only value, permission
    /// and existence changes are reported).
    pub fn diff(old: &Tree, new: &Tree) -> TreeDiff {
        let mut diff = TreeDiff::default();
        fn record_subtree(node: &Node, path: &Path, out: &mut Vec<(Path, DomId)>) {
            out.push((path.clone(), node.perms.owner()));
            for (name, child) in &node.children {
                #[expect(
                    clippy::expect_used,
                    reason = "child names were validated when inserted into the tree"
                )]
                let p = path.child(name).expect("stored names are valid");
                record_subtree(child, &p, out);
            }
        }
        fn walk(old: &Arc<Node>, new: &Arc<Node>, path: &Path, diff: &mut TreeDiff) {
            if Arc::ptr_eq(old, new) {
                return;
            }
            if old.value != new.value {
                diff.value_changed.push(path.clone());
            }
            if old.perms != new.perms {
                diff.perms_changed.push(path.clone());
            }
            // Children: a single merge-iteration over both sorted maps, so
            // every diff list comes out in globally sorted DFS order (the
            // invariant `removed_roots` and the merge's binary searches
            // rely on).
            let mut old_children = old.children.iter().peekable();
            let mut new_children = new.children.iter().peekable();
            loop {
                let order = match (old_children.peek(), new_children.peek()) {
                    (None, None) => break,
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (Some((old_name, _)), Some((new_name, _))) => old_name.cmp(new_name),
                };
                match order {
                    std::cmp::Ordering::Less => {
                        #[expect(clippy::expect_used, reason = "peek returned Some on this branch")]
                        let (name, old_child) = old_children.next().expect("peeked");
                        #[expect(
                            clippy::expect_used,
                            reason = "child names were validated when inserted into the tree"
                        )]
                        let p = path.child(name).expect("stored names are valid");
                        record_subtree(old_child, &p, &mut diff.removed);
                    }
                    std::cmp::Ordering::Greater => {
                        #[expect(clippy::expect_used, reason = "peek returned Some on this branch")]
                        let (name, new_child) = new_children.next().expect("peeked");
                        #[expect(
                            clippy::expect_used,
                            reason = "child names were validated when inserted into the tree"
                        )]
                        let p = path.child(name).expect("stored names are valid");
                        record_subtree(new_child, &p, &mut diff.added);
                    }
                    std::cmp::Ordering::Equal => {
                        #[expect(clippy::expect_used, reason = "peek returned Some on this branch")]
                        let (name, old_child) = old_children.next().expect("peeked");
                        #[expect(clippy::expect_used, reason = "peek returned Some on this branch")]
                        let (_, new_child) = new_children.next().expect("peeked");
                        #[expect(
                            clippy::expect_used,
                            reason = "child names were validated when inserted into the tree"
                        )]
                        let p = path.child(name).expect("stored names are valid");
                        walk(old_child, new_child, &p, diff);
                    }
                }
            }
        }
        walk(&old.root, &new.root, &Path::root(), &mut diff);
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perms::PermLevel;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn write_creates_missing_parents() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/local/domain/3/name"), b"http")
            .unwrap();
        assert!(t.exists(&p("/local")));
        assert!(t.exists(&p("/local/domain")));
        assert!(t.exists(&p("/local/domain/3")));
        assert_eq!(
            t.read(DomId::DOM0, &p("/local/domain/3/name")).unwrap(),
            b"http"
        );
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn read_missing_is_noent() {
        let t = Tree::new();
        assert_eq!(
            t.read(DomId::DOM0, &p("/nope")),
            Err(Error::NoEntry("/nope".into()))
        );
    }

    #[test]
    fn directory_lists_children_sorted() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/local/domain/3"), b"").unwrap();
        t.write(DomId::DOM0, &p("/local/domain/1"), b"").unwrap();
        t.write(DomId::DOM0, &p("/local/domain/2"), b"").unwrap();
        assert_eq!(
            t.directory(DomId::DOM0, &p("/local/domain")).unwrap(),
            vec!["1", "2", "3"]
        );
    }

    #[test]
    fn mkdir_is_idempotent() {
        let mut t = Tree::new();
        t.mkdir(DomId::DOM0, &p("/conduit")).unwrap();
        t.mkdir(DomId::DOM0, &p("/conduit")).unwrap();
        t.mkdir(DomId::DOM0, &p("/")).unwrap();
        assert!(t.exists(&p("/conduit")));
    }

    #[test]
    fn rm_removes_subtree() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/b/c"), b"1").unwrap();
        t.write(DomId::DOM0, &p("/a/b/d"), b"2").unwrap();
        t.rm(DomId::DOM0, &p("/a/b")).unwrap();
        assert!(!t.exists(&p("/a/b")));
        assert!(!t.exists(&p("/a/b/c")));
        assert!(t.exists(&p("/a")));
        assert_eq!(
            t.rm(DomId::DOM0, &p("/a/b")),
            Err(Error::NoEntry("/a/b".into()))
        );
        assert!(t.rm(DomId::DOM0, &Path::root()).is_err());
    }

    #[test]
    fn root_write_rejected_and_value_size_limited() {
        let mut t = Tree::new();
        assert!(t.write(DomId::DOM0, &Path::root(), b"x").is_err());
        let big = vec![0u8; MAX_VALUE_LEN + 1];
        assert!(t.write(DomId::DOM0, &p("/big"), &big).is_err());
        let ok = vec![0u8; MAX_VALUE_LEN];
        assert!(t.write(DomId::DOM0, &p("/big"), &ok).is_ok());
    }

    #[test]
    fn generations_track_modifications() {
        let mut t = Tree::new();
        let g0 = t.generation();
        t.write(DomId::DOM0, &p("/a"), b"1").unwrap();
        let g1 = t.generation();
        assert!(g1 > g0);
        t.write(DomId::DOM0, &p("/a"), b"2").unwrap();
        let node = t.get(&p("/a")).unwrap();
        assert_eq!(node.modified_gen, t.generation());
        // Creating a child bumps the parent's children_gen but not its
        // modified_gen.
        let parent_modified_before = t.get(&p("/a")).unwrap().modified_gen;
        t.write(DomId::DOM0, &p("/a/b"), b"3").unwrap();
        let parent = t.get(&p("/a")).unwrap();
        assert_eq!(parent.modified_gen, parent_modified_before);
        assert_eq!(parent.children_gen, t.generation());
    }

    #[test]
    fn unprivileged_domains_cannot_touch_others_nodes() {
        let mut t = Tree::new();
        // dom0 creates a private area for dom3.
        t.write(DomId::DOM0, &p("/local/domain/3/name"), b"x")
            .unwrap();
        // A guest cannot read or write dom0-owned nodes...
        assert!(matches!(
            t.read(DomId(7), &p("/local/domain/3/name")),
            Err(Error::PermissionDenied(_))
        ));
        assert!(matches!(
            t.write(DomId(7), &p("/local/domain/3/name"), b"y"),
            Err(Error::PermissionDenied(_))
        ));
        // ...until granted access.
        let perms = Permissions::owned_by(DomId::DOM0).granting(DomId(7), PermLevel::Read);
        t.set_perms(DomId::DOM0, &p("/local/domain/3/name"), perms)
            .unwrap();
        assert!(t.read(DomId(7), &p("/local/domain/3/name")).is_ok());
        assert!(t.write(DomId(7), &p("/local/domain/3/name"), b"y").is_err());
    }

    #[test]
    fn unprivileged_creation_is_owned_by_creator() {
        let mut t = Tree::new();
        // dom0 gives dom7 a writable home directory.
        t.mkdir(DomId::DOM0, &p("/local/domain/7")).unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/local/domain/7"),
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        t.write(DomId(7), &p("/local/domain/7/data/feature"), b"1")
            .unwrap();
        let node = t.get(&p("/local/domain/7/data/feature")).unwrap();
        assert_eq!(node.perms.owner(), DomId(7));
        // Another guest cannot see it.
        assert!(t
            .read(DomId(9), &p("/local/domain/7/data/feature"))
            .is_err());
    }

    #[test]
    fn create_restricted_directory_allows_foreign_creation() {
        let mut t = Tree::new();
        // The server (dom3) owns its listen queue and marks it
        // create-restricted so clients can enqueue connection requests.
        t.mkdir(DomId::DOM0, &p("/conduit/http_server/listen"))
            .unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/conduit/http_server/listen"),
            Permissions::owned_by(DomId(3)).create_restricted(),
        )
        .unwrap();
        // A client (dom7) may create its connection key...
        t.write(DomId(7), &p("/conduit/http_server/listen/conn1"), b"7")
            .unwrap();
        // ...which the server and the client can read, but others cannot.
        assert!(t
            .read(DomId(3), &p("/conduit/http_server/listen/conn1"))
            .is_ok());
        assert!(t
            .read(DomId(7), &p("/conduit/http_server/listen/conn1"))
            .is_ok());
        assert!(t
            .read(DomId(9), &p("/conduit/http_server/listen/conn1"))
            .is_err());
        // Without the flag, foreign creation is denied.
        t.mkdir(DomId::DOM0, &p("/conduit/other/listen")).unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/conduit/other/listen"),
            Permissions::owned_by(DomId(3)),
        )
        .unwrap();
        assert!(t
            .write(DomId(7), &p("/conduit/other/listen/conn1"), b"7")
            .is_err());
    }

    #[test]
    fn set_perms_requires_ownership() {
        let mut t = Tree::new();
        t.mkdir(DomId::DOM0, &p("/local/domain/3")).unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/local/domain/3"),
            Permissions::owned_by(DomId(3)),
        )
        .unwrap();
        // dom7 does not own the node, so cannot change its perms.
        assert!(t
            .set_perms(
                DomId(7),
                &p("/local/domain/3"),
                Permissions::owned_by(DomId(7))
            )
            .is_err());
        // dom3 owns it and may.
        assert!(t
            .set_perms(
                DomId(3),
                &p("/local/domain/3"),
                Permissions::with_default(DomId(3), PermLevel::Read)
            )
            .is_ok());
        assert!(t
            .set_perms(DomId::DOM0, &p("/missing"), Permissions::owned_by(DomId(0)))
            .is_err());
    }

    #[test]
    fn owned_count_and_all_paths() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/b"), b"").unwrap();
        t.mkdir(DomId::DOM0, &p("/local/domain/7")).unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/local/domain/7"),
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        t.write(DomId(7), &p("/local/domain/7/x"), b"1").unwrap();
        assert_eq!(t.owned_count(DomId(7)), 2);
        let paths = t.all_paths();
        assert!(paths.contains(&Path::root()));
        assert!(paths.contains(&p("/local/domain/7/x")));
        assert_eq!(paths.len(), t.node_count());
    }

    // ---------------- persistence / structural sharing -------------------

    #[test]
    fn snapshot_is_a_pointer_copy() {
        let mut t = Tree::new();
        for i in 0..200 {
            t.write(DomId::DOM0, &p(&format!("/warm/k{i}")), b"v")
                .unwrap();
        }
        let snap = t.clone();
        assert!(t.shares_root_with(&snap), "clone must not copy any node");
        assert_eq!(t.shared_node_count(&snap), t.node_count());
    }

    #[test]
    fn mutation_copies_only_the_root_to_leaf_path() {
        let mut t = Tree::new();
        for i in 0..100 {
            t.write(DomId::DOM0, &p(&format!("/data/bucket{}/k", i % 10)), b"v")
                .unwrap();
        }
        let snap = t.clone();
        let total = t.node_count();
        t.write(DomId::DOM0, &p("/data/bucket3/k"), b"w").unwrap();
        // Only /, /data, /data/bucket3 and /data/bucket3/k were copied.
        let copied = total - t.shared_node_count(&snap);
        assert_eq!(copied, 4, "path copying must touch exactly the spine");
        // The snapshot still reads the old value.
        assert_eq!(snap.read(DomId::DOM0, &p("/data/bucket3/k")).unwrap(), b"v");
        assert_eq!(t.read(DomId::DOM0, &p("/data/bucket3/k")).unwrap(), b"w");
    }

    #[test]
    fn snapshots_are_immune_to_later_mutations() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/b"), b"1").unwrap();
        t.write(DomId::DOM0, &p("/c"), b"2").unwrap();
        let snap = t.clone();
        let paths_before = snap.all_paths();
        t.rm(DomId::DOM0, &p("/a")).unwrap();
        t.write(DomId::DOM0, &p("/c"), b"3").unwrap();
        t.write(DomId::DOM0, &p("/d/e"), b"4").unwrap();
        assert_eq!(snap.all_paths(), paths_before);
        assert_eq!(snap.read(DomId::DOM0, &p("/a/b")).unwrap(), b"1");
        assert_eq!(snap.read(DomId::DOM0, &p("/c")).unwrap(), b"2");
        assert!(!snap.exists(&p("/d/e")));
    }

    // ---------------- structural diff -------------------------------------

    #[test]
    fn diff_of_identical_trees_is_empty() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/b"), b"1").unwrap();
        let snap = t.clone();
        let d = Tree::diff(&snap, &t);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn diff_reports_adds_removes_and_changes() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/keep"), b"same").unwrap();
        t.write(DomId::DOM0, &p("/gone/x"), b"1").unwrap();
        t.write(DomId::DOM0, &p("/edit"), b"old").unwrap();
        let old = t.clone();
        t.rm(DomId::DOM0, &p("/gone")).unwrap();
        t.write(DomId::DOM0, &p("/edit"), b"new").unwrap();
        t.write(DomId::DOM0, &p("/fresh/y"), b"2").unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/keep"),
            Permissions::with_default(DomId::DOM0, PermLevel::Write),
        )
        .unwrap();

        let d = Tree::diff(&old, &t);
        let added: Vec<String> = d.added.iter().map(|(p, _)| p.to_string()).collect();
        let removed: Vec<String> = d.removed.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(added, vec!["/fresh", "/fresh/y"]);
        assert_eq!(removed, vec!["/gone", "/gone/x"]);
        assert_eq!(d.value_changed, vec![p("/edit")]);
        assert_eq!(d.perms_changed, vec![p("/keep")]);
        // Removed roots collapse the subtree to its topmost node.
        assert_eq!(d.removed_roots(), vec![&p("/gone")]);
        // changed_paths is the sorted union.
        assert_eq!(
            d.changed_paths(),
            vec![
                p("/edit"),
                p("/fresh"),
                p("/fresh/y"),
                p("/gone"),
                p("/gone/x"),
                p("/keep")
            ]
        );
    }

    #[test]
    fn diff_lists_are_globally_sorted() {
        // The tricky interleaving: a deep addition under an early-sorting
        // common subtree plus a shallow addition under a late-sorting name.
        // A naive two-loop walk would emit /a/deep/x before /m even though
        // /m sorts later than neither — the merge-iteration keeps every
        // list globally sorted.
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/keep"), b"1").unwrap();
        t.write(DomId::DOM0, &p("/z/keep"), b"1").unwrap();
        let old = t.clone();
        t.write(DomId::DOM0, &p("/z/added"), b"2").unwrap();
        t.write(DomId::DOM0, &p("/m"), b"3").unwrap();
        t.write(DomId::DOM0, &p("/a/keep"), b"changed").unwrap();
        t.rm(DomId::DOM0, &p("/z/keep")).unwrap();
        let d = Tree::diff(&old, &t);
        let added: Vec<String> = d.added.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(added, vec!["/m", "/z/added"]);
        let mut sorted = d.added.clone();
        sorted.sort();
        assert_eq!(d.added, sorted);
        for list in [&d.value_changed, &d.perms_changed] {
            let mut sorted = list.clone();
            sorted.sort();
            assert_eq!(list, &sorted);
        }
        let mut sorted = d.removed.clone();
        sorted.sort();
        assert_eq!(d.removed, sorted);
    }

    #[test]
    fn removed_roots_collapses_each_subtree_independently() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/x/deep"), b"1").unwrap();
        t.write(DomId::DOM0, &p("/a/y"), b"2").unwrap();
        t.write(DomId::DOM0, &p("/b/z"), b"3").unwrap();
        t.write(DomId::DOM0, &p("/keep"), b"4").unwrap();
        let old = t.clone();
        t.rm(DomId::DOM0, &p("/a/x")).unwrap();
        t.rm(DomId::DOM0, &p("/b")).unwrap();
        let d = Tree::diff(&old, &t);
        // /a/x (+deep) and /b (+z) removed; /a/y and /keep untouched.
        assert_eq!(d.removed.len(), 4);
        assert_eq!(d.removed_roots(), vec![&p("/a/x"), &p("/b")]);
    }

    #[test]
    fn diff_carries_owners_for_quota_accounting() {
        let mut t = Tree::new();
        t.mkdir(DomId::DOM0, &p("/local/domain/7")).unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/local/domain/7"),
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        let old = t.clone();
        t.write(DomId(7), &p("/local/domain/7/k"), b"v").unwrap();
        let d = Tree::diff(&old, &t);
        assert_eq!(d.added, vec![(p("/local/domain/7/k"), DomId(7))]);
        let back = Tree::diff(&t, &old);
        assert_eq!(back.removed, vec![(p("/local/domain/7/k"), DomId(7))]);
    }

    #[test]
    fn diff_ignores_generation_only_differences() {
        // Rebuilding the same content through a different op sequence yields
        // different generation stamps but an empty semantic diff.
        let mut a = Tree::new();
        a.write(DomId::DOM0, &p("/x"), b"1").unwrap();
        let mut b = Tree::new();
        b.mkdir(DomId::DOM0, &p("/x")).unwrap();
        b.write(DomId::DOM0, &p("/x"), b"1").unwrap();
        assert!(Tree::diff(&a, &b).is_empty());
    }
}
