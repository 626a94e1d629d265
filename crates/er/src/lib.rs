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
//! query-restricted run and a whole-table run — the determinism the
//! paper's DQ-correctness argument relies on (see `ARCHITECTURE.md` at
//! the repository root).
//!
//! # The hot resolve path
//!
//! The paper reports Comparison-Execution dominating query time
//! (Table 6), so everything the comparison loop touches is materialized
//! once at [`TableErIndex::build`] time and the query path is pure
//! lookup:
//!
//! * **Interned token arena** — every profile token is mapped to a dense
//!   `u32` symbol ([`queryer_common::TokenInterner`]) and each record's
//!   sorted symbol slice is packed into one flat
//!   [`queryer_common::TokenArena`]. Token-set similarities
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
//!   (`DedupMetrics::blocking` reads zero). The enriched QBI itself is
//!   one flat `(block, entity)` vector grouped by a stable sort — no
//!   per-block candidate `Vec` is allocated per query.
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
//! * **One node-centric enumerator** — node-centric Edge Pruning counts
//!   each frontier entity's neighbourhood into a
//!   [`index::CooccurrenceScratch`] and computes its *survivor row* (the
//!   neighbours whose edge it keeps, first-touch order) from the stored
//!   thresholds, then emits the rows in frontier order through one
//!   dedup; on the resolve-all shape a frontier-rank ownership rule
//!   (each edge is emitted only by its first-scanned endpoint) replaces
//!   the per-edge `PairSet` insert. The survivor fill fans out over the
//!   same worker partitioning (`ErConfig::threads`, env knob
//!   `QUERYER_THREADS`), each worker writing its chunk's rows into one
//!   flat buffer; any thread count is bit-identical. Rows are not kept
//!   across queries: the resolve loop marks every finished frontier
//!   resolved in the Link Index, so a node's row is asked for about
//!   once per Link-Index lifetime.
//! * **Cross-query decision memo** — `execute_comparisons` consults a
//!   pair-keyed decision memo (a sharded [`queryer_common::ShardedMap`],
//!   cap `ErConfig::decision_cache_cap`) before running any kernel, so
//!   overlapping queries skip comparison work entirely. A decision is a
//!   pure function of the index, so the memo never changes one:
//!   `DedupMetrics` reports `decision_cache_*` hit/miss counters, and
//!   `comparisons`/`candidate_pairs`/`matches_found` never depend on
//!   memo state (property-pinned by `tests/cache_equivalence.rs`
//!   against cleared memos over sequences of overlapping point + range
//!   queries).
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
//!
//! `tests/interned_equivalence.rs` pins the index's interned profiles
//! to the raw records (a test-side oracle that renders, lowercases and
//! tokenizes per comparison) and a full `run` to a reference pipeline
//! built from public accessors, across similarity kinds and random
//! corpora; `tests/ep_equivalence.rs` pins the threshold sweep and the
//! stored vector to a mean-of-weights oracle and the enumerator across
//! thread counts (pair sequences, DR/links), weight schemes, pruning
//! scopes, and frontier sizes;
//! `tests/kernel_equivalence.rs` pins the compiled kernels and the
//! parallel Comparison-Execution executor bit-identical (decisions,
//! DR/links) to the canonical [`CompiledMatcher::similarity`] across all
//! similarity kinds, thresholds at the early-exit boundaries, and thread
//! counts; and `tests/cache_equivalence.rs` pins the cross-query
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
pub mod union_find;

pub use config::{
    BlockingKind, EdgePruningScope, ErConfig, MetaBlockingConfig, SimilarityKind, WeightScheme,
};
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
pub use union_find::UnionFind;
