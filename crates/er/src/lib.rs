//! Entity-resolution substrate for QueryER.
//!
//! Implements every ER building block the paper's Deduplicate operator
//! pipeline needs (Sec. 6.1, Fig. 3):
//!
//! * schema-agnostic **Token Blocking** and the three per-table indices —
//!   Table Block Index (TBI), Inverse Table Block Index (ITBI) and Link
//!   Index (LI) described in Sec. 3;
//! * **Meta-Blocking**: Block Purging (BP), Block Filtering (BF) and Edge
//!   Pruning (EP) applied in that strict order (Sec. 6.1(iii));
//! * string **similarity functions** (Jaro-Winkler, Jaro, Levenshtein,
//!   Jaccard, overlap) and the schema-agnostic profile matcher they are
//!   compiled into ([`CompiledMatcher`]);
//! * the **resolver**, i.e. the ER half of the Deduplicate operator:
//!   Query Blocking → Block-Join → Meta-Blocking → Comparison-Execution.
//!
//! All purging/filtering/pruning decisions are *table-level* (computed on
//! the TBI/ITBI at build time), which makes them identical between a
//! query-restricted run and a whole-table run, and every resolve expands
//! its duplicates transitively to a fixpoint — the determinism the
//! paper's DQ-correctness argument relies on, under every
//! [`ErConfig`] (see `ARCHITECTURE.md` at the repository root).
//!
//! # The hot resolve path
//!
//! The paper reports Comparison-Execution dominating query time
//! (Table 6), so everything the comparison loop touches is materialized
//! once at [`TableErIndex::build`] time and the query path is pure
//! lookup:
//!
//! * **One tokenization per record** — [`tokenizer::RecordTokenizer`]
//!   renders each value once and yields the record's blocking keys,
//!   profile tokens and lowered attributes in one pass, lowercasing into
//!   a reused buffer so a token allocates nothing; the build and a
//!   delta's re-tokenization share it. Block ids follow a record's key
//!   iteration order, which the tokenizer keeps by reproducing the
//!   inserts and reserves of a per-record `FxHashSet<String>` (see the
//!   module docs).
//! * **Interned token arena** — every profile token is mapped to a dense
//!   `u32` symbol ([`queryer_common::TokenInterner`]) and each record's
//!   sorted symbol slice is a row of one flat
//!   [`queryer_common::Csr`]. Token-set similarities
//!   (Jaccard/overlap) sorted-merge two `&[u32]` slices; no strings, no
//!   hashing, no allocation.
//! * **Pre-lowercased attributes** — mean Jaro-Winkler reads rendered,
//!   lowercased attribute text stored per record × column (`None`
//!   encodes NULLs and the skipped id column), so no comparison renders
//!   or case-folds a value. Both views travel as
//!   [`index::InternedProfile`].
//! * **ITBI-backed Query Blocking** — every query entity is a record of
//!   the indexed table (QE_E for Deduplicate, the survivors QE′ for
//!   Deduplicate-Join), and the ITBI row of a record *is* its QBI
//!   already joined against the TBI, so the resolve loop's Query
//!   Blocking + Block-Join stages are index lookups paid at build time
//!   (`DedupMetrics::blocking` reads zero). BP and BF are baked into
//!   the retained / filtered rows at build too, so no enriched QBI is
//!   assembled per query.
//! * **CSR-packed blocking graph** — all four block-graph relations
//!   (block→records raw and filtered, record→blocks full and retained)
//!   are flat [`queryer_common::Csr`] offsets+data buffers built once at
//!   index time, so a neighbourhood scan is a contiguous slice sweep
//!   with no `Vec<Vec<_>>` pointer chase.
//! * **Dense co-occurrence scratch** — Edge Pruning's neighbourhood
//!   scans count common blocks in a reusable [`index::CooccurrenceScratch`]
//!   (dense counters + first-touch list) instead of allocating a hash
//!   map per frontier entity.
//! * **WNP thresholds at build** — node-centric Edge Pruning's
//!   per-node threshold (the mean edge weight of the node's
//!   neighbourhood in the whole blocking graph) is a table-level fact
//!   like the purge threshold, so [`TableErIndex::build`] sweeps it once
//!   for every node ([`edge_pruning::bulk_node_thresholds`], chunked
//!   over `ErConfig::threads`) into one `Vec<f64>`
//!   ([`TableErIndex::bulk_ep_thresholds`]). A delta patches the slots
//!   whose neighbourhood changed; no query computes a threshold, and a
//!   survival check is two array loads.
//! * **One node-scan enumerator** — Edge Pruning, and every config
//!   without it (BP+BF, BP, NONE), counts each frontier
//!   entity's neighbourhood into a [`index::CooccurrenceScratch`] and
//!   keeps the edges either endpoint's stored threshold admits (every
//!   edge with EP off, by a compile-time keep rule), emitting each pair
//!   once by the query's node scan order: a frontier node the query has
//!   not scanned yet gets the next sequence number, and an edge goes out
//!   only at the endpoint scanned first (the weight is bit-symmetric, so
//!   both endpoints agree on survival). One order read per edge replaces
//!   a per-edge `PairSet` insert, and a node scanned before emits nothing.
//!   The fill fans out over the same worker partitioning
//!   (`ErConfig::threads`, env knob `QUERYER_THREADS`), each worker
//!   emitting its chunk's pairs; any thread count is bit-identical.
//!   Nothing is kept across queries: the resolve loop marks every
//!   finished frontier resolved in the Link Index, so a node is scanned
//!   about once per Link-Index lifetime.
//! * **Link-Index-decided pairs, and a decision memo for what writes
//!   un-resolve** — the Link-Index read that finds linked pairs also
//!   classes the rest. Pair generation is symmetric (a pair survives
//!   whichever endpoint the node scan reaches first), so an unlinked
//!   pair with a resolved endpoint was decided when that endpoint was
//!   resolved: a non-match, with no kernel and no memo probe. Only
//!   pairs with a *stale* endpoint — one a write's
//!   [`LinkIndex::invalidate`] un-resolved — probe and fill the
//!   pair-keyed decision memo (one mutexed map; each entry carries
//!   the write epoch it was taken at, and serves only while neither
//!   endpoint was updated or deleted since, so a write never scans the
//!   memo); a pair of never-resolved records runs its kernel and writes
//!   nothing. The memo is bounded by what writes un-resolve: every
//!   entry is a distinct pair some query compared since the last build,
//!   and compaction or any rebuild empties it. A decision is a pure
//!   function of the index, so neither changes one: `DedupMetrics`
//!   reports `decision_cache_*` hit/miss counters, and
//!   `comparisons`/`candidate_pairs`/`matches_found` never depend on
//!   memo state (property-pinned by `tests/cache_equivalence.rs`
//!   against cleared memos and fresh builds over sessions of
//!   overlapping point + range queries, writes and invalidations).
//! * **Compiled comparison kernels** — [`CompiledMatcher::new`] resolves the
//!   similarity kind, threshold, and attribute layout once into a
//!   [`kernel::CompareKernel`] over kernel-ready per-record data
//!   (pre-lowercased attributes, per-attribute [`index::AttrMeta`] with
//!   character lengths and Winkler prefix bytes, interned token slices
//!   with a fixed-width token signature). Each kernel decides from
//!   fixed-width bounds first — the signature bound on the token
//!   intersection, the whole-pair length-difference + common-prefix
//!   Jaro-Winkler mean bound, the Jaccard size-ratio bound — and only
//!   then sorts, merges or scans text, where an in-scan match-count
//!   cutoff and a banded cutoff-carrying Levenshtein DP cut the
//!   O(len²)-ish similarity work short; the hybrid kernel decides the
//!   cheap overlap half first. `execute_comparisons` fans the pair batch out across
//!   the same `ErConfig::threads` workers on the same chunked fan-out
//!   as the EP sweep; decisions stay position-aligned, so thread count
//!   never affects results.
//! * **One Link-Index protocol** — a resolve only *reads* the Link
//!   Index while it works, accumulates links and resolved marks in a
//!   private [`LinkDelta`], and publishes them with one
//!   [`LinkIndex::commit`], whether the caller passed `&mut LinkIndex`
//!   or a shared `&RwLock<LinkIndex>` (see [`TableErIndex::run`]). A
//!   resolve that returns `Err` commits nothing.
//! * **Clusters as Link-Index data** — the Link Index keeps every
//!   record's linked component: a label (the component's minimum
//!   member, [`LinkIndex::label`]) and a member ring
//!   ([`LinkIndex::ring`]). A commit's new link splices two rings in
//!   O(1) and relabels in O(smaller component) by repointing the smaller
//!   side to the larger side's root; a write's invalidation rebuilds
//!   only the components it un-resolves; the snapshot format does not
//!   change, since decoding derives the rings. After its commit a
//!   resolve reads DR_E and each member's cluster id off the rings
//!   ([`LinkIndex::labelled_closure`]); the outcome carries both, so no
//!   caller walks the Link Index again to group a result.
//!
//! `tests/interned_equivalence.rs` pins the index's interned profiles
//! to the raw records (a test-side oracle that renders, lowercases and
//! tokenizes per comparison) and a full `run` to a reference pipeline
//! built from public accessors, across similarity kinds and random
//! corpora; `tests/ep_equivalence.rs` pins the threshold sweep and the
//! stored vector to a mean-of-weights oracle, the scan-order emission
//! to an insert-probing oracle over sequences of frontier calls (also
//! over a live delta, whose patched thresholds it checks too), the
//! EP-off emission to a block-major collector (with and without a live
//! delta), and the enumerator across thread counts (pair sequences, DR/links),
//! weight schemes and frontier sizes;
//! `tests/kernel_equivalence.rs` pins the compiled kernels and the
//! parallel Comparison-Execution executor bit-identical (decisions,
//! DR/links) to the canonical [`CompiledMatcher::similarity`] across all
//! similarity kinds, thresholds at the early-exit boundaries, thread
//! counts and both orientations of a pair; and `tests/cache_equivalence.rs` pins the cross-query
//! decision memo to a cleared one over query sequences sharing one Link
//! Index.

#![warn(missing_docs)]

pub mod config;
pub mod delta;
pub mod edge_pruning;
pub mod govern;
pub mod index;
pub mod kernel;
pub mod link_index;
pub mod metrics;
pub mod purging;
pub mod request;
pub mod resolver;
pub mod similarity;
pub mod snapshot;
pub mod tokenizer;

pub use config::{BlockingKind, ErConfig, MetaBlockingConfig, SimilarityKind, WeightScheme};
pub use delta::{Affected, AppliedDelta, DeltaOp};
pub use govern::{Completion, ResolveBudget, ResolveError, ResolveStage};
pub use index::{AttrMeta, BlockId, CooccurrenceScratch, InternedProfile, TableErIndex};
pub use kernel::{CompareKernel, CompiledMatcher, KernelScratch, QuerySide};
pub use link_index::{LinkDelta, LinkIndex};
pub use metrics::DedupMetrics;
pub use queryer_common::CancelToken;
pub use request::{LiMode, ResolveRequest, ResolveTarget};
pub use resolver::ResolveOutcome;
pub use snapshot::{content_fingerprint, open_index_snapshot, write_index_snapshot, SnapshotError};
