//! The Link Index (LI) of Sec. 3: "a hash index that maps each entity to
//! its duplicate entities. It is initially empty and is amended with the
//! links that each query resolves."
//!
//! The LI is what makes QueryER progressively faster with every issued
//! query (Fig. 11): entities already marked *resolved* skip Query
//! Blocking and Comparison-Execution entirely, and so does every
//! unlinked candidate pair with a resolved endpoint: the resolved mark
//! promises that every match of the entity is linked here.

use crate::delta::Affected;
use queryer_common::{FxHashMap, FxHashSet, PairSet};
use queryer_storage::RecordId;

/// What the Link Index knows about one record's link-set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mark {
    /// Never resolved, or forgotten by [`LinkIndex::clear`].
    Unresolved,
    /// The link-set is complete: every candidate pair incident to the
    /// record was decided, and every match among them is linked here.
    Resolved,
    /// Was resolved until a write's [`LinkIndex::invalidate`] dropped
    /// the mark. Unresolved as far as any answer goes; the resolver
    /// keeps the decision memo for pairs touching such records, since
    /// only they are asked again.
    Stale,
}

/// Per-table link index: a mark per record (unresolved, resolved or
/// stale), the symmetric link adjacency, and each record's linked
/// component kept as data.
///
/// The component is a member ring plus a label. Following
/// [`LinkIndex::ring`] from any member visits each member of its
/// component once; [`LinkIndex::label`] is the component's minimum
/// member, the cluster id of [`crate::ResolveOutcome::clusters`]. A link
/// between two components splices their rings by swapping two `next`
/// pointers and repoints the smaller component's members to the larger
/// one's root, so a merge costs O(smaller component) however large a
/// hub grows. A write's [`LinkIndex::invalidate`] rebuilds only the
/// components it un-resolves. The three per-record words (`next`,
/// `root`, and at a root its component's minimum) are derived from the
/// adjacency, so the snapshot format does not carry them and does not
/// change. Every id passed to the index must be below
/// [`LinkIndex::len`]; [`LinkIndex::grow`] extends the range.
#[derive(Debug, Clone, Default)]
pub struct LinkIndex {
    pub(crate) marks: Vec<Mark>,
    pub(crate) adj: FxHashMap<RecordId, Vec<RecordId>>,
    pub(crate) n_links: usize,
    ring: Vec<RingNode>,
}

/// One record's place in its linked component.
#[derive(Debug, Clone, Copy)]
struct RingNode {
    /// The next member of the component's ring.
    next: RecordId,
    /// The component's representative; only the smaller side of a merge
    /// is repointed.
    root: RecordId,
    /// At a representative, its component's minimum member; meaningless
    /// elsewhere.
    min: RecordId,
}

impl RingNode {
    /// A record with no link: a ring of one, its own root and label.
    fn alone(id: RecordId) -> Self {
        Self {
            next: id,
            root: id,
            min: id,
        }
    }
}

/// A `root` no record has: marks a member [`LinkIndex::relink`] has not
/// reached yet.
const UNSEEN: RecordId = RecordId::MAX;

impl LinkIndex {
    /// Creates an empty index for a table of `n` records.
    pub fn new(n: usize) -> Self {
        Self {
            marks: vec![Mark::Unresolved; n],
            adj: FxHashMap::default(),
            n_links: 0,
            ring: (0..n as RecordId).map(RingNode::alone).collect(),
        }
    }

    /// An index over decoded marks and adjacency, its components derived
    /// from the adjacency. The caller has checked that every id is
    /// below `marks.len()` and that the adjacency is symmetric.
    pub(crate) fn from_parts(
        marks: Vec<Mark>,
        adj: FxHashMap<RecordId, Vec<RecordId>>,
        n_links: usize,
    ) -> Self {
        let all: Vec<RecordId> = (0..marks.len() as RecordId).collect();
        let mut li = Self {
            marks,
            adj,
            n_links,
            ring: all.iter().map(|&id| RingNode::alone(id)).collect(),
        };
        li.relink(&all);
        li
    }

    /// Number of records covered.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// `true` when covering no records.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Whether the entity's link-set has already been fully computed by a
    /// previous query.
    #[inline]
    pub fn is_resolved(&self, id: RecordId) -> bool {
        self.marks[id as usize] == Mark::Resolved
    }

    /// The entity's mark. Only the resolver tells a stale entity from
    /// an unresolved one, to decide which pairs the decision memo keeps.
    #[inline]
    pub(crate) fn mark(&self, id: RecordId) -> Mark {
        self.marks[id as usize]
    }

    /// Marks an entity as fully resolved.
    #[inline]
    pub fn mark_resolved(&mut self, id: RecordId) {
        self.marks[id as usize] = Mark::Resolved;
    }

    /// Number of resolved entities.
    pub fn resolved_count(&self) -> usize {
        self.marks.iter().filter(|&&m| m == Mark::Resolved).count()
    }

    /// Number of distinct links (matched pairs) recorded.
    pub fn link_count(&self) -> usize {
        self.n_links
    }

    /// Records a duplicate link (both directions) and joins the two
    /// records' components. Returns `true` if new.
    pub fn add_link(&mut self, a: RecordId, b: RecordId) -> bool {
        if a == b || self.are_linked(a, b) {
            return false;
        }
        self.adj.entry(a).or_default().push(b);
        self.adj.entry(b).or_default().push(a);
        self.n_links += 1;
        self.merge(a, b);
        true
    }

    /// Whether `a` and `b` are directly linked.
    #[inline]
    pub fn are_linked(&self, a: RecordId, b: RecordId) -> bool {
        // A fresh LI probes nothing: first-query resolves check every
        // candidate pair here, so skip the hash until a link exists.
        self.n_links > 0 && self.adj.get(&a).is_some_and(|v| v.contains(&b))
    }

    /// Direct duplicates of `id` (no transitive closure).
    pub fn neighbors(&self, id: RecordId) -> &[RecordId] {
        self.adj.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The cluster id of `id`: the minimum member of its linked
    /// component (`id` itself when it has no link). Two records are in
    /// one cluster exactly when their labels are equal.
    #[inline]
    pub fn label(&self, id: RecordId) -> RecordId {
        let root = self.ring[id as usize].root;
        self.ring[root as usize].min
    }

    /// The members of `id`'s linked component, each once, in ring order
    /// starting at `id` — not in id order.
    pub fn ring(&self, id: RecordId) -> impl Iterator<Item = RecordId> + '_ {
        std::iter::successors(Some(id), move |&x| {
            Some(self.ring[x as usize].next).filter(|&n| n != id)
        })
    }

    /// Transitive closure over links starting from `seeds`: the full
    /// duplicate clusters touching the seeds. Output is sorted and
    /// includes the seeds themselves.
    pub fn closure(&self, seeds: impl IntoIterator<Item = RecordId>) -> Vec<RecordId> {
        self.labelled_members(seeds)
            .into_iter()
            .map(|(m, _)| m)
            .collect()
    }

    /// [`LinkIndex::closure`] of `seeds` with each member's cluster id,
    /// aligned: `(members, labels)`, members sorted, `labels[i]` the
    /// minimum member of the linked component holding `members[i]`.
    pub fn labelled_closure(
        &self,
        seeds: impl IntoIterator<Item = RecordId>,
    ) -> (Vec<RecordId>, Vec<RecordId>) {
        self.labelled_members(seeds).into_iter().unzip()
    }

    /// `(member, label)` of every member of the seeds' components,
    /// sorted and distinct. A seed with no link is its own pair; each
    /// other component is walked once, from its root.
    fn labelled_members(
        &self,
        seeds: impl IntoIterator<Item = RecordId>,
    ) -> Vec<(RecordId, RecordId)> {
        let mut labelled: Vec<(RecordId, RecordId)> = Vec::new();
        let mut roots: Vec<RecordId> = Vec::new();
        for s in seeds {
            let node = self.ring[s as usize];
            if node.next == s {
                labelled.push((s, s));
            } else {
                roots.push(node.root);
            }
        }
        roots.sort_unstable();
        roots.dedup();
        for root in roots {
            let label = self.ring[root as usize].min;
            labelled.extend(self.ring(root).map(|m| (m, label)));
        }
        labelled.sort_unstable();
        labelled.dedup();
        labelled
    }

    /// Joins the components of `a` and `b`. The smaller ring's members
    /// are repointed to the larger ring's root, which takes the smaller
    /// of the two labels, and swapping `a`'s and `b`'s `next` splices
    /// the two rings into one. O(smaller component).
    fn merge(&mut self, a: RecordId, b: RecordId) {
        let (root_a, root_b) = (self.ring[a as usize].root, self.ring[b as usize].root);
        if root_a == root_b {
            return;
        }
        let (small, keep) = if self.ring_closes_first(a, b) {
            (a, root_b)
        } else {
            (b, root_a)
        };
        let label = self.ring[root_a as usize]
            .min
            .min(self.ring[root_b as usize].min);
        let mut x = small;
        loop {
            let node = &mut self.ring[x as usize];
            node.root = keep;
            x = node.next;
            if x == small {
                break;
            }
        }
        self.ring[keep as usize].min = label;
        let next_a = self.ring[a as usize].next;
        self.ring[a as usize].next = self.ring[b as usize].next;
        self.ring[b as usize].next = next_a;
    }

    /// Whether `a`'s ring is no longer than `b`'s: both are walked in
    /// lockstep until one closes, so the cost is O(the shorter ring).
    fn ring_closes_first(&self, a: RecordId, b: RecordId) -> bool {
        let (mut x, mut y) = (a, b);
        loop {
            x = self.ring[x as usize].next;
            y = self.ring[y as usize].next;
            if x == a {
                return true;
            }
            if y == b {
                return false;
            }
        }
    }

    /// Rebuilds the components of `members` from the adjacency.
    /// `members` must hold whole components of the adjacency, in
    /// ascending id order. A breadth-first search runs from each member
    /// not reached yet, which is the minimum of its component and
    /// becomes its root; the search order is the new ring.
    /// O(members + their links).
    fn relink(&mut self, members: &[RecordId]) {
        for &m in members {
            self.ring[m as usize].root = UNSEEN;
        }
        let mut queue: Vec<RecordId> = Vec::new();
        for &start in members {
            if self.ring[start as usize].root != UNSEEN {
                continue;
            }
            self.ring[start as usize] = RingNode::alone(start);
            queue.clear();
            queue.push(start);
            let mut i = 0;
            while let Some(&x) = queue.get(i) {
                i += 1;
                for &n in self.adj.get(&x).map_or(&[][..], Vec::as_slice) {
                    let node = &mut self.ring[n as usize];
                    if node.root == UNSEEN {
                        node.root = start;
                        queue.push(n);
                    }
                }
            }
            for (i, &x) in queue.iter().enumerate() {
                self.ring[x as usize].next = queue.get(i + 1).copied().unwrap_or(start);
            }
        }
    }

    /// Extends coverage to a table that has grown to `n` records; the
    /// new tail starts unresolved and linkless. Shrinking is not a thing
    /// — deletes keep their dense id as an all-NULL row.
    pub fn grow(&mut self, n: usize) {
        if n > self.marks.len() {
            let old = self.marks.len() as RecordId;
            self.marks.resize(n, Mark::Unresolved);
            self.ring.extend((old..n as RecordId).map(RingNode::alone));
        }
    }

    /// Drops everything the index claims about `ids`: every link
    /// incident to them (both directions, so the adjacency stays
    /// symmetric) and the resolved mark of every member of their
    /// duplicate clusters, which turn stale.
    /// A resolve seeds its frontier from the
    /// *unresolved* query entities and answers with their closure, so a
    /// resolved mark promises more than a complete link-set: every
    /// member of the closure must be resolved too. Un-resolving only
    /// `ids` and the records that lose an edge would leave the far end
    /// of a chain a–b–c resolved after `invalidate([c])`, and a query on
    /// `a` would answer {a, b} without ever looking at `c` again. This
    /// is the ingest path's targeted invalidation — clusters are small,
    /// and everything outside them stays warm. The same closure is the
    /// set of components that can split, and only those are rebuilt.
    pub fn invalidate(&mut self, ids: &[RecordId]) {
        let members = self.closure(ids.iter().copied());
        for &member in &members {
            unresolve(&mut self.marks[member as usize]);
        }
        let set: FxHashSet<RecordId> = ids.iter().copied().collect();
        for &id in &set {
            if let Some(ns) = self.adj.remove(&id) {
                for n in ns {
                    if set.contains(&n) {
                        // Pair between two invalidated ids: both sides'
                        // lists are dropped whole; count it exactly once
                        // (at the smaller endpoint, order-independent).
                        if id < n {
                            self.n_links -= 1;
                        }
                        continue;
                    }
                    self.n_links -= 1;
                    if let Some(back) = self.adj.get_mut(&n) {
                        back.retain(|&x| x != id);
                        if back.is_empty() {
                            self.adj.remove(&n);
                        }
                    }
                }
            }
        }
        self.relink(&members);
    }

    /// [`LinkIndex::invalidate`] of every record: drops every link and
    /// turns every resolved mark stale. The ingest path's answer to a
    /// write whose effect is not targeted ([`Affected::All`]).
    pub fn invalidate_all(&mut self) {
        self.marks.iter_mut().for_each(unresolve);
        self.unlink_all();
    }

    /// Follows one write applied to the table and its ER index: grows
    /// to the table's `n_records`, then un-resolves the ids the write
    /// affected ([`LinkIndex::invalidate`]) or every record
    /// ([`LinkIndex::invalidate_all`]). The ingest path's Link-Index
    /// rule.
    pub fn follow_write(&mut self, n_records: usize, affected: &Affected) {
        self.grow(n_records);
        match affected {
            Affected::Ids(ids) => self.invalidate(ids),
            Affected::All => self.invalidate_all(),
        }
    }

    /// Forgets everything, stale marks included (used by the "Without
    /// LI" ablation of Fig. 11).
    pub fn clear(&mut self) {
        self.marks.iter_mut().for_each(|m| *m = Mark::Unresolved);
        self.unlink_all();
    }

    /// Drops every link: each record is a component of its own again.
    fn unlink_all(&mut self) {
        self.adj.clear();
        self.n_links = 0;
        for (id, node) in self.ring.iter_mut().enumerate() {
            *node = RingNode::alone(id as RecordId);
        }
    }

    /// Applies a query's private [`LinkDelta`] under the caller's write
    /// critical section. Returns how many of the delta's links were
    /// actually new — links already present (committed earlier by this
    /// or a concurrent query) are deduped, so committing is idempotent
    /// and safe under any interleaving of concurrent resolvers.
    ///
    /// Links and resolved marks land atomically with respect to readers
    /// (the caller holds the write lock), preserving the LI contract:
    /// once `is_resolved(x)` is observable, every link incident to `x`
    /// is observable too. Each new link's component merge costs
    /// O(smaller component) inside that critical section.
    pub fn commit(&mut self, delta: &LinkDelta) -> usize {
        let mut added = 0;
        for &(a, b) in &delta.links {
            if self.add_link(a, b) {
                added += 1;
            }
        }
        for &id in &delta.resolved {
            self.mark_resolved(id);
        }
        added
    }
}

/// Takes a resolved mark back; unresolved and stale marks stay.
fn unresolve(mark: &mut Mark) {
    if *mark == Mark::Resolved {
        *mark = Mark::Stale;
    }
}

/// A query's private accumulator of links and resolved marks, for the
/// shared-index resolve path (read-snapshot + delta-commit).
///
/// A concurrent resolver never mutates the shared [`LinkIndex`]
/// mid-query: it reads through short-lived read locks, records every
/// match and completed-round resolved mark here, and publishes the
/// whole delta with one brief [`LinkIndex::commit`] at the end. The
/// delta dedups its own inserts (`add_link` is set-semantics, exactly
/// like the LI's) and `commit` dedups against links other queries
/// committed in the meantime.
#[derive(Debug, Clone, Default)]
pub struct LinkDelta {
    links: Vec<(RecordId, RecordId)>,
    seen: PairSet,
    resolved: Vec<RecordId>,
    resolved_set: FxHashSet<RecordId>,
}

impl LinkDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a duplicate link. Returns `true` if new to this delta.
    #[inline]
    pub fn add_link(&mut self, a: RecordId, b: RecordId) -> bool {
        if a == b || !self.seen.insert(a, b) {
            return false;
        }
        self.links.push((a, b));
        true
    }

    /// Whether this delta already holds the unordered link `(a, b)`.
    #[inline]
    pub fn are_linked(&self, a: RecordId, b: RecordId) -> bool {
        self.seen.contains(a, b)
    }

    /// Marks an entity resolved as of this delta's commit.
    #[inline]
    pub fn mark_resolved(&mut self, id: RecordId) {
        if self.resolved_set.insert(id) {
            self.resolved.push(id);
        }
    }

    /// Whether this delta will mark `id` resolved on commit.
    #[inline]
    pub fn is_resolved(&self, id: RecordId) -> bool {
        self.resolved_set.contains(&id)
    }

    /// Number of distinct links recorded.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of distinct resolved marks recorded.
    pub fn resolved_count(&self) -> usize {
        self.resolved.len()
    }

    /// `true` when the delta carries no links and no marks — committing
    /// it would be a no-op, so callers skip the write lock entirely.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.resolved.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_are_symmetric_and_deduped() {
        let mut li = LinkIndex::new(10);
        assert!(li.add_link(1, 2));
        assert!(!li.add_link(2, 1));
        assert!(!li.add_link(3, 3));
        assert!(li.are_linked(2, 1));
        assert_eq!(li.link_count(), 1);
        assert_eq!(li.neighbors(1), &[2]);
    }

    #[test]
    fn closure_follows_chains() {
        let mut li = LinkIndex::new(10);
        li.add_link(1, 2);
        li.add_link(2, 5);
        li.add_link(7, 8);
        assert_eq!(li.closure([1]), vec![1, 2, 5]);
        assert_eq!(li.closure([1, 7]), vec![1, 2, 5, 7, 8]);
        assert_eq!(li.closure([9]), vec![9]);
    }

    #[test]
    fn labels_and_rings_follow_merges_and_splits() {
        let mut li = LinkIndex::new(10);
        li.add_link(5, 6);
        li.add_link(6, 7);
        assert_eq!([li.label(5), li.label(6), li.label(7)], [5, 5, 5]);
        li.add_link(2, 7);
        assert!((2..=7)
            .filter(|&id| id != 3 && id != 4)
            .all(|id| li.label(id) == 2));
        let mut ring: Vec<RecordId> = li.ring(6).collect();
        assert_eq!(ring[0], 6, "a ring starts where it is entered");
        ring.sort_unstable();
        assert_eq!(ring, [2, 5, 6, 7]);
        assert_eq!(
            li.ring(3).collect::<Vec<_>>(),
            [3],
            "no link, a ring of one"
        );

        // Cutting 7 out splits {2, 5, 6, 7} into {2}, {5, 6} and {7}.
        li.invalidate(&[7]);
        assert_eq!(
            [li.label(2), li.label(5), li.label(6), li.label(7)],
            [2, 5, 5, 7]
        );
        assert_eq!(li.closure([6]), [5, 6]);
        assert_eq!(li.ring(2).collect::<Vec<_>>(), [2]);
        li.invalidate_all();
        assert!((0..10).all(|id| li.label(id) == id && li.ring(id).count() == 1));
    }

    #[test]
    fn a_merge_repoints_only_the_smaller_component() {
        // A hub of 50 members whose minimum is 50 takes a link to the
        // singleton 3: the label drops to 3, and only 3 is repointed.
        let mut li = LinkIndex::new(100);
        for x in 51..100 {
            li.add_link(50, x);
        }
        let roots = |li: &LinkIndex| (50..100).map(|x| li.ring[x].root).collect::<Vec<_>>();
        let before = roots(&li);
        li.add_link(99, 3);
        assert_eq!(roots(&li), before, "the larger side keeps its root");
        assert!((50..100).chain([3]).all(|id| li.label(id) == 3));
        assert_eq!(li.ring(3).count(), 51);
    }

    #[test]
    fn delta_commit_is_idempotent() {
        let mut d = LinkDelta::new();
        assert!(d.add_link(1, 2));
        assert!(!d.add_link(2, 1));
        assert!(!d.add_link(3, 3));
        d.add_link(2, 5);
        d.mark_resolved(1);
        d.mark_resolved(1);
        d.mark_resolved(2);
        assert_eq!((d.link_count(), d.resolved_count()), (2, 2));

        let mut li = LinkIndex::new(10);
        assert_eq!(li.commit(&d), 2);
        // Committing the same delta again adds nothing and changes nothing.
        assert_eq!(li.commit(&d), 0);
        assert_eq!(li.link_count(), 2);
        assert_eq!(li.resolved_count(), 2);
        assert!(li.are_linked(2, 1) && li.are_linked(5, 2));
    }

    #[test]
    fn delta_commit_dedups_concurrently_committed_links() {
        // Two "threads" resolve overlapping work: their deltas share the
        // (1,2) link in opposite orientations. Whichever commits second
        // must dedup it but still land its own new links and marks.
        let mut a = LinkDelta::new();
        a.add_link(1, 2);
        a.add_link(1, 4);
        a.mark_resolved(1);
        let mut b = LinkDelta::new();
        b.add_link(2, 1);
        b.add_link(2, 7);
        b.mark_resolved(2);

        let mut li = LinkIndex::new(10);
        assert_eq!(li.commit(&a), 2);
        assert_eq!(li.commit(&b), 1);
        assert_eq!(li.link_count(), 3);
        assert_eq!(li.neighbors(1), &[2, 4]);
        assert!(li.is_resolved(1) && li.is_resolved(2));
        // Adjacency stays symmetric: no committed neighbour is dropped.
        for (&x, ns) in li.adj.iter() {
            for &n in ns {
                assert!(li.neighbors(n).contains(&x));
            }
        }
    }

    #[test]
    fn delta_overlay_queries() {
        let mut d = LinkDelta::new();
        assert!(!d.are_linked(1, 2) && !d.is_resolved(1));
        d.add_link(1, 2);
        d.mark_resolved(1);
        assert!(d.are_linked(2, 1));
        assert!(d.is_resolved(1) && !d.is_resolved(2));
        assert!(!d.is_empty());
        assert!(LinkDelta::new().is_empty());
    }

    #[test]
    fn invalidate_unresolves_the_whole_component() {
        // Chain 1–2–3 plus a bystander pair 7–8, all resolved. A resolve
        // seeds its frontier from the unresolved query entities only and
        // answers with the closure, so if invalidating 3 left 1 resolved,
        // a point query on 1 would answer {1, 2} and never look for 3.
        let mut li = LinkIndex::new(10);
        li.add_link(1, 2);
        li.add_link(2, 3);
        li.add_link(7, 8);
        for id in [1, 2, 3, 7, 8] {
            li.mark_resolved(id);
        }
        li.invalidate(&[3]);
        assert!(!li.are_linked(2, 3) && li.are_linked(1, 2));
        assert_eq!(li.link_count(), 2);
        for id in li.closure([1]) {
            assert!(!li.is_resolved(id), "{id} is in 1's closure");
            assert_eq!(
                li.mark(id),
                Mark::Stale,
                "{id} was resolved, so it turns stale"
            );
        }
        assert_eq!(li.mark(3), Mark::Stale);
        assert!(li.is_resolved(7) && li.is_resolved(8), "7–8 is untouched");

        // A never-resolved member stays unresolved, not stale.
        li.add_link(1, 9);
        li.invalidate(&[1]);
        assert_eq!(li.mark(9), Mark::Unresolved);
    }

    #[test]
    fn resolved_flags() {
        let mut li = LinkIndex::new(3);
        assert_eq!(li.mark(0), Mark::Unresolved);
        li.mark_resolved(0);
        li.mark_resolved(1);
        li.add_link(0, 1);
        assert!(li.is_resolved(0));
        assert_eq!(li.resolved_count(), 2);
        li.invalidate_all();
        assert_eq!((li.resolved_count(), li.link_count()), (0, 0));
        let marks: Vec<Mark> = (0..3).map(|id| li.mark(id)).collect();
        assert_eq!(marks, [Mark::Stale, Mark::Stale, Mark::Unresolved]);
        // Re-resolving a stale entity makes it plainly resolved again.
        li.mark_resolved(0);
        assert_eq!(li.mark(0), Mark::Resolved);
        li.clear();
        assert_eq!(li.resolved_count(), 0);
        assert_eq!(li.link_count(), 0);
        assert!(
            (0..3).all(|id| li.mark(id) == Mark::Unresolved),
            "clear forgets stale marks"
        );
    }
}
