//! Configuration of the ER pipeline.

/// Which meta-blocking methods run, mirroring the configurations of
/// Table 8 in the paper: `ALL` (BP + BF + EP), `BP+BF`, `BP+EP`, plus
/// `BP`-only and `None` for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetaBlockingConfig {
    /// Block Purging + Block Filtering + Edge Pruning — the configuration
    /// QueryER uses by default ("we used the ALL to sacrifice some recall
    /// to enhance performance", Sec. 9.2).
    #[default]
    All,
    /// Block Purging + Block Filtering.
    BpBf,
    /// Block Purging + Edge Pruning.
    BpEp,
    /// Block Purging only.
    Bp,
    /// No meta-blocking (every co-occurring pair is compared).
    None,
}

impl MetaBlockingConfig {
    /// Whether Block Purging runs.
    pub fn purging(&self) -> bool {
        !matches!(self, MetaBlockingConfig::None)
    }

    /// Whether Block Filtering runs.
    pub fn filtering(&self) -> bool {
        matches!(self, MetaBlockingConfig::All | MetaBlockingConfig::BpBf)
    }

    /// Whether Edge Pruning runs.
    pub fn edge_pruning(&self) -> bool {
        matches!(self, MetaBlockingConfig::All | MetaBlockingConfig::BpEp)
    }

    /// Short display label matching the paper's Table 8.
    pub fn label(&self) -> &'static str {
        match self {
            MetaBlockingConfig::All => "ALL",
            MetaBlockingConfig::BpBf => "BP+BF",
            MetaBlockingConfig::BpEp => "BP+EP",
            MetaBlockingConfig::Bp => "BP",
            MetaBlockingConfig::None => "NONE",
        }
    }
}

/// Blocking-key function (Sec. 10 lists "the integration of different
/// blocking methods … and their comparative evaluation" as future work;
/// both are implemented here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockingKind {
    /// Schema-agnostic Token Blocking (the paper's choice): every token
    /// of every attribute value is a blocking key.
    #[default]
    Token,
    /// Character n-gram blocking: every length-`n` substring of every
    /// token is a key — more robust to typos inside tokens, at the cost
    /// of more (and larger) blocks.
    NGram(usize),
}

/// Edge-weighting scheme for the blocking graph (Sec. 4, Meta-Blocking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightScheme {
    /// Common Blocks Scheme: the number of blocks two entities share.
    #[default]
    Cbs,
    /// Enhanced CBS: CBS scaled by the (log) inverse block-list sizes of
    /// both entities — down-weights promiscuous entities.
    Ecbs,
    /// Jaccard of the two entities' block lists.
    Js,
}

/// Scope of the Edge Pruning threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgePruningScope {
    /// Node-centric (WNP-style): each entity prunes its own edges against
    /// the mean weight of its table-level neighbourhood; a pair survives
    /// if either endpoint keeps it. Deterministic w.r.t. the table, hence
    /// query-stable (DQ ≡ BAQ testable).
    #[default]
    NodeCentric,
    /// Global (WEP-style): one mean-weight threshold over all edges of the
    /// examined (query) subgraph. Faster, but only approximately
    /// query-stable — provided for ablation.
    Global,
}

/// Profile similarity used by Comparison-Execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimilarityKind {
    /// Mean Jaro-Winkler over attributes where both sides are non-null —
    /// the paper's configuration ("the Jaro-Winker similarity function",
    /// Sec. 9.1).
    MeanJaroWinkler,
    /// Jaccard similarity of the records' token sets (schema-agnostic).
    TokenJaccard,
    /// Overlap coefficient of the records' token sets.
    TokenOverlap,
    /// Mean Levenshtein similarity (`1 - dist/max_len`) over attributes
    /// where both sides are non-null — an edit-distance alternate whose
    /// compiled kernel runs a banded two-row DP with a threshold-derived
    /// cutoff.
    MeanLevenshtein,
    /// `max(MeanJaroWinkler, TokenOverlap)` — robust to both typos and
    /// abbreviation/containment (e.g. "EDBT" vs its full venue name).
    #[default]
    Hybrid,
}

/// Full configuration of the ER side of QueryER.
#[derive(Debug, Clone)]
pub struct ErConfig {
    /// Blocking-key function.
    pub blocking: BlockingKind,
    /// Minimum token length for blocking keys.
    pub min_token_len: usize,
    /// Skip the table's `id` column (case-insensitive name match) when
    /// blocking/matching, so identifiers never act as blocking keys.
    pub skip_id_column: bool,
    /// Smoothing factor of Block Purging (paper: experimentally 1.025).
    pub purging_smooth_factor: f64,
    /// Block Filtering ratio `p ≤ 1`: each entity is retained only in the
    /// first `⌈p · |B_e|⌉` of its blocks, sorted ascending by size.
    pub filtering_ratio: f64,
    /// Which meta-blocking methods run.
    pub meta: MetaBlockingConfig,
    /// Edge weighting scheme for EP.
    pub weight_scheme: WeightScheme,
    /// Threshold scope for EP.
    pub ep_scope: EdgePruningScope,
    /// Profile similarity function.
    pub similarity: SimilarityKind,
    /// Match decision threshold in `[0, 1]`.
    pub match_threshold: f64,
    /// Resolve newly-found duplicates transitively until fixpoint, so the
    /// result groups equal the batch approach's connected components.
    pub transitive: bool,
    /// Worker threads for every parallel stage: the
    /// [`TableErIndex::build`] sweeps (tokenization, interning,
    /// attribute lowering/metadata, WNP thresholds), the Edge Pruning
    /// fan-outs (survivor fill, frontier scan) and
    /// Comparison-Execution. `0` = auto (available parallelism), `1` =
    /// sequential (the paper's single-machine setting). Thread count
    /// never affects the built index or a decision: every stage merges
    /// its chunks in input order (pinned by `tests/build_equivalence.rs`,
    /// `tests/ep_equivalence.rs` and `tests/kernel_equivalence.rs`).
    /// Default comes from the `QUERYER_THREADS` env knob.
    ///
    /// [`TableErIndex::build`]: crate::TableErIndex::build
    pub threads: usize,
    /// Entry budget for the pair-keyed comparison-decision cache. `0`
    /// (the default) means unbounded; any other value caps the map at
    /// that many entries with per-shard CLOCK eviction. Eviction trades
    /// recomputation for memory and never changes a decision (pinned by
    /// `tests/cache_equivalence.rs`). Default comes from the
    /// `QUERYER_DECISION_CACHE_CAP` env knob.
    pub decision_cache_cap: usize,
}

impl Default for ErConfig {
    fn default() -> Self {
        Self {
            blocking: BlockingKind::Token,
            min_token_len: 1,
            skip_id_column: true,
            purging_smooth_factor: 1.025,
            filtering_ratio: 0.8,
            meta: MetaBlockingConfig::All,
            weight_scheme: WeightScheme::Cbs,
            ep_scope: EdgePruningScope::NodeCentric,
            similarity: SimilarityKind::Hybrid,
            match_threshold: 0.85,
            transitive: true,
            threads: queryer_common::knobs::threads(),
            decision_cache_cap: queryer_common::knobs::decision_cache_cap(),
        }
    }
}

impl ErConfig {
    /// Returns a copy with a different meta-blocking configuration
    /// (used by the Table 8 experiment).
    pub fn with_meta(mut self, meta: MetaBlockingConfig) -> Self {
        self.meta = meta;
        self
    }

    /// Returns a copy with a different match threshold.
    pub fn with_threshold(mut self, t: f64) -> Self {
        self.match_threshold = t;
        self
    }

    /// Whether this config runs node-centric (WNP) Edge Pruning — the
    /// configs whose index carries a threshold per record.
    pub fn node_centric_ep(&self) -> bool {
        self.meta.edge_pruning() && self.ep_scope == EdgePruningScope::NodeCentric
    }

    /// The concrete worker count: `threads`, with `0` resolved to the
    /// machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_flags() {
        assert!(MetaBlockingConfig::All.purging());
        assert!(MetaBlockingConfig::All.filtering());
        assert!(MetaBlockingConfig::All.edge_pruning());
        assert!(!MetaBlockingConfig::BpBf.edge_pruning());
        assert!(!MetaBlockingConfig::BpEp.filtering());
        assert!(MetaBlockingConfig::BpEp.edge_pruning());
        assert!(!MetaBlockingConfig::None.purging());
    }

    #[test]
    fn default_is_paper_config() {
        let c = ErConfig::default();
        assert_eq!(c.meta, MetaBlockingConfig::All);
        assert!((c.purging_smooth_factor - 1.025).abs() < 1e-9);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let pinned = ErConfig {
            threads: 2,
            ..ErConfig::default()
        };
        assert_eq!(pinned.effective_threads(), 2);
        let auto = ErConfig {
            threads: 0,
            ..ErConfig::default()
        };
        assert!(auto.effective_threads() >= 1);
    }
}
