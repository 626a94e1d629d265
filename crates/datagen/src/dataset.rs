//! Dataset assembly: originals + corrupted duplicates → shuffled table
//! with dense ids and exact ground truth.

use crate::corrupt::{CorruptionConfig, Corruptor};
use crate::groundtruth::GroundTruth;
use queryer_storage::{DataType, Field, RecordId, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated table with its ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The dirty table. Column 0 is always `id: Int` (assigned after
    /// shuffling, so ids are uncorrelated with clusters — the property
    /// the paper's Q9 `MOD(id, 10) < 1` predicate relies on for a random
    /// selection).
    pub table: Table,
    /// True duplicate clusters.
    pub truth: GroundTruth,
}

impl Dataset {
    /// Records in the table (|E|, Table 7).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// Parameters shared by every generator.
#[derive(Debug, Clone)]
pub struct DirtySpec {
    /// Target total record count (originals + duplicates).
    pub n_records: usize,
    /// Fraction of records that are duplicates (PPL: 0.40, OpenAIRE: 0.10).
    pub dup_ratio: f64,
    /// Maximum duplicates generated per original (paper: 3).
    pub max_dups_per_record: usize,
    /// RNG seed.
    pub seed: u64,
    /// Corruption model.
    pub corruption: CorruptionConfig,
}

impl DirtySpec {
    /// Standard spec with the paper's febrl parameters.
    pub fn new(n_records: usize, dup_ratio: f64, seed: u64) -> Self {
        Self {
            n_records,
            dup_ratio,
            max_dups_per_record: 3,
            seed,
            corruption: CorruptionConfig::default(),
        }
    }

    /// Number of original (duplicate-free) records to generate.
    pub fn n_originals(&self) -> usize {
        ((self.n_records as f64) * (1.0 - self.dup_ratio)).round() as usize
    }
}

/// Builds a schema whose first column is `id: Int`.
pub fn schema_with_id(fields: &[(&str, DataType)]) -> Schema {
    let mut all = vec![Field::new("id", DataType::Int)];
    all.extend(fields.iter().map(|(n, t)| Field::new(*n, *t)));
    Schema::new(all)
}

/// Assembles a dirty dataset: takes the original rows (WITHOUT the id
/// column), generates corrupted duplicates per the spec, shuffles
/// everything, assigns dense ids, and records the ground truth.
/// `corruptible` lists the column indices (in the id-less row layout)
/// the corruptor may touch.
pub fn assemble(
    name: &str,
    schema: Schema,
    originals: Vec<Vec<Value>>,
    spec: &DirtySpec,
    corruptible: &[usize],
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    let corruptor = Corruptor::new(spec.corruption.clone());
    let n_orig = originals.len();
    let dup_budget = spec.n_records.saturating_sub(n_orig);

    // (origin index, row values without id).
    let mut items: Vec<(usize, Vec<Value>)> = originals.into_iter().enumerate().collect();
    let mut dups_of = vec![0usize; n_orig];
    let mut made = 0usize;
    let mut attempts = 0usize;
    while made < dup_budget && attempts < dup_budget * 20 {
        attempts += 1;
        let origin = rng.random_range(0..n_orig);
        if dups_of[origin] >= spec.max_dups_per_record {
            continue;
        }
        dups_of[origin] += 1;
        let mut copy = items[origin].1.clone();
        corruptor.corrupt_record(&mut rng, &mut copy, corruptible);
        items.push((origin, copy));
        made += 1;
    }

    // Fisher-Yates shuffle so duplicates are scattered through the table.
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }

    let mut table = Table::new(name, schema);
    table.reserve(items.len());
    let mut cluster_members: Vec<Vec<RecordId>> = vec![Vec::new(); n_orig];
    for (pos, (origin, row)) in items.into_iter().enumerate() {
        let mut values = Vec::with_capacity(row.len() + 1);
        values.push(Value::Int(pos as i64));
        values.extend(row);
        let id = table.push_row(values).expect("schema arity");
        cluster_members[origin].push(id);
    }
    let clusters: Vec<Vec<RecordId>> = cluster_members
        .into_iter()
        .filter(|c| c.len() >= 2)
        .collect();
    Dataset {
        table,
        truth: GroundTruth::from_clusters(clusters),
    }
}

/// Deterministic pick helper shared by the generators.
pub(crate) fn pick<'a, T: ?Sized>(rng: &mut StdRng, pool: &'a [&'a T]) -> &'a T {
    pool[rng.random_range(0..pool.len())]
}

/// Mean token-block size the scaled vocabularies aim for. With a fixed
/// pool, every pool word's block grows linearly with the corpus — at
/// 500k records a ~170-word name pool yields ~3000-member blocks whose
/// Edge Pruning neighbourhoods go quadratic. Extending the vocabulary to
/// `n / VOCAB_TARGET_BLOCK` distinct values keeps blocks near this size
/// at every scale.
pub(crate) const VOCAB_TARGET_BLOCK: usize = 40;

/// Vocabulary size for a pool at corpus size `n` with a given target
/// block size: never below the pool itself, so corpora small enough for
/// the plain pool keep their exact historical RNG stream.
pub(crate) fn scaled_vocab_with(pool_len: usize, n: usize, target_block: usize) -> usize {
    pool_len.max(n / target_block.max(1))
}

/// [`scaled_vocab_with`] at the standard [`VOCAB_TARGET_BLOCK`].
pub(crate) fn scaled_vocab(pool_len: usize, n: usize) -> usize {
    scaled_vocab_with(pool_len, n, VOCAB_TARGET_BLOCK)
}

/// Draws an index from a scaled vocabulary. Exactly one RNG draw; when
/// `vocab == pool_len` the draw is uniform over the pool — bit-identical
/// to [`pick`]'s `random_range`, so the pinned small workloads
/// (including the 2000-record / seed-99 `dblp_scholar` corpus whose
/// decision counts the test suites pin) are byte-for-byte unchanged.
///
/// When the vocabulary outgrows the pool the uniform draw is mapped
/// through `u^1.5`, giving token `j` a Zipf-ish density ∝
/// `(j/vocab)^(-1/3)`. Real token frequencies are heavy-tailed, and
/// meta-blocking depends on it: with a *uniform* large vocabulary nearly
/// every co-occurring pair shares exactly one block, every node's mean
/// CBS edge weight is exactly 1.0, and WNP's `weight ≥ mean` test keeps
/// the entire neighbourhood — the pruned graph degenerates to the raw
/// blocking graph and comparisons go quadratic (observed: 299
/// comparisons/record at 500k uniform vs ~9 at 20k). The skew restores
/// the weight diversity mean-based pruning assumes; the resulting head
/// tokens behave like real stop words — Block Purging drops the largest
/// and Block Filtering trims the rest. The exponent is deliberately
/// milder than `u²`: a harder skew grows head blocks (and with them
/// every Edge Pruning neighbourhood) ~`√n`, which measured ~2.5× slower
/// at 100k with no extra pruning benefit.
pub(crate) fn scaled_index(rng: &mut StdRng, pool_len: usize, vocab: usize) -> usize {
    let vocab = vocab.max(pool_len.max(1));
    let k = rng.random_range(0..vocab);
    if vocab == pool_len {
        return k;
    }
    let u = k as f64 / vocab as f64;
    ((u * u.sqrt() * vocab as f64) as usize).min(vocab - 1)
}

/// [`pick`] over a vocabulary that may exceed the pool (see
/// [`scaled_index`] for the draw semantics). Indices beyond the pool
/// synthesize a deterministic token by suffixing the pool word they
/// alias.
pub(crate) fn pick_scaled(rng: &mut StdRng, pool: &[&str], vocab: usize) -> String {
    let j = scaled_index(rng, pool.len(), vocab);
    if j < pool.len() {
        pool[j].to_string()
    } else {
        format!("{}{}", pool[j % pool.len()], j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(spec: &DirtySpec) -> Dataset {
        let schema = schema_with_id(&[("name", DataType::Str), ("city", DataType::Str)]);
        let originals: Vec<Vec<Value>> = (0..spec.n_originals())
            .map(|i| {
                vec![
                    Value::str(format!("person number {i}")),
                    Value::str(format!("city{}", i % 7)),
                ]
            })
            .collect();
        assemble("t", schema, originals, spec, &[0, 1])
    }

    #[test]
    fn reaches_target_size_and_dup_ratio() {
        let spec = DirtySpec::new(1000, 0.4, 42);
        let d = tiny(&spec);
        assert_eq!(d.len(), 1000);
        let dup_records: usize = d.truth.clusters().iter().map(|c| c.len() - 1).sum();
        let ratio = dup_records as f64 / d.len() as f64;
        assert!((ratio - 0.4).abs() < 0.02, "dup ratio {ratio}");
    }

    #[test]
    fn cluster_size_capped() {
        let spec = DirtySpec::new(500, 0.4, 1);
        let d = tiny(&spec);
        assert!(d.truth.clusters().iter().all(|c| c.len() <= 4));
    }

    #[test]
    fn ids_are_dense_and_shuffled() {
        let spec = DirtySpec::new(300, 0.4, 9);
        let d = tiny(&spec);
        for (i, r) in d.table.records().iter().enumerate() {
            assert_eq!(r.value(0), &Value::Int(i as i64));
        }
        // Clusters must not be contiguous runs (shuffling worked).
        let adjacent = d
            .truth
            .clusters()
            .iter()
            .flat_map(|c| c.windows(2))
            .filter(|w| w[1] == w[0] + 1)
            .count();
        let total_pairs: usize = d.truth.clusters().iter().map(|c| c.len() - 1).sum();
        assert!(
            adjacent * 5 < total_pairs.max(1) * 4,
            "{adjacent}/{total_pairs}"
        );
    }

    #[test]
    fn scaled_vocab_never_shrinks_the_pool() {
        assert_eq!(scaled_vocab(100, 2000), 100); // 2000/40 = 50 < pool
        assert_eq!(scaled_vocab(100, 4000), 100);
        assert_eq!(scaled_vocab(100, 8000), 200);
        assert_eq!(scaled_vocab(100, 500_000), 12_500);
        assert_eq!(scaled_vocab_with(30, 2000, 80), 30);
        assert_eq!(scaled_vocab_with(30, 500_000, 80), 6250);
    }

    #[test]
    fn pick_scaled_is_rng_identical_to_pick_at_pool_size() {
        // The pinned 2k workloads rely on this: with vocab == pool.len()
        // pick_scaled must consume the same draw and return the same
        // word as pick, leaving the RNG stream byte-identical.
        let pool = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            assert_eq!(pick_scaled(&mut a, &pool, pool.len()), *pick(&mut b, &pool));
        }
        assert_eq!(
            a.random_range(0..1_000_000u64),
            b.random_range(0..1_000_000u64)
        );
    }

    #[test]
    fn scaled_index_is_zipfish_beyond_the_pool() {
        // Heavy head: P(j < vocab/100) = (1/100)^(2/3) ≈ 4.6% under the
        // u^1.5 map, vs 1% uniform. The tail must still be reachable.
        let mut rng = StdRng::seed_from_u64(5);
        let vocab = 10_000usize;
        let draws: Vec<usize> = (0..20_000)
            .map(|_| scaled_index(&mut rng, 30, vocab))
            .collect();
        let head = draws.iter().filter(|&&j| j < vocab / 100).count();
        assert!((600..=1300).contains(&head), "head draws {head}/20000");
        assert!(draws.iter().any(|&j| j > vocab / 2), "tail reachable");
        assert!(draws.iter().all(|&j| j < vocab));
    }

    #[test]
    fn pick_scaled_synthesizes_deterministic_tokens_beyond_pool() {
        let pool = ["alpha", "beta"];
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let xs: Vec<String> = (0..100).map(|_| pick_scaled(&mut a, &pool, 50)).collect();
        let ys: Vec<String> = (0..100).map(|_| pick_scaled(&mut b, &pool, 50)).collect();
        assert_eq!(xs, ys);
        assert!(
            xs.iter().any(|t| t.len() > "alpha".len()),
            "synth tokens appear"
        );
        let distinct: std::collections::HashSet<&str> = xs.iter().map(|s| s.as_str()).collect();
        assert!(distinct.len() > pool.len(), "vocabulary actually grew");
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = DirtySpec::new(200, 0.3, 5);
        let a = tiny(&spec);
        let b = tiny(&spec);
        assert_eq!(a.table.records(), b.table.records());
        let spec2 = DirtySpec::new(200, 0.3, 6);
        let c = tiny(&spec2);
        assert_ne!(a.table.records(), c.table.records());
    }
}
