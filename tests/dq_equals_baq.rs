//! The Problem Statement's DQ-correctness condition, property-tested:
//! for arbitrary generated dirty datasets and arbitrary workload
//! queries, the Dedupe query (under every planning strategy) returns
//! exactly the result of the equivalent query over the batch-cleaned
//! data. The single-table properties draw the `ErConfig` too, from every
//! meta-blocking configuration, weight scheme, blocking function and
//! similarity kind, since the condition must hold under each.

use proptest::prelude::*;
use queryer::common::knobs::proptest_cases;
use queryer::core::engine::{ExecMode, QueryEngine};
use queryer::datagen::{openaire, scholarly};
use queryer::er::{BlockingKind, SimilarityKind, WeightScheme};
use queryer::prelude::*;

fn sp_engine(n: usize, seed: u64, cfg: ErConfig) -> QueryEngine {
    let ds = scholarly::dblp_scholar(n, seed);
    let mut e = QueryEngine::new(cfg);
    e.register_table(ds.table).unwrap();
    e
}

/// One `ErConfig` per case: any meta-blocking configuration, weight
/// scheme, blocking function (tokens or character 3-grams) and
/// similarity kind, the rest at the paper's defaults.
fn er_config() -> impl Strategy<Value = ErConfig> {
    (0usize..5, 0usize..3, any::<bool>(), 0usize..5).prop_map(|(meta, scheme, ngram, sim)| {
        ErConfig {
            meta: [
                MetaBlockingConfig::All,
                MetaBlockingConfig::BpBf,
                MetaBlockingConfig::BpEp,
                MetaBlockingConfig::Bp,
                MetaBlockingConfig::None,
            ][meta],
            weight_scheme: [WeightScheme::Cbs, WeightScheme::Ecbs, WeightScheme::Js][scheme],
            blocking: if ngram {
                BlockingKind::NGram(3)
            } else {
                BlockingKind::Token
            },
            similarity: [
                SimilarityKind::MeanJaroWinkler,
                SimilarityKind::TokenJaccard,
                SimilarityKind::TokenOverlap,
                SimilarityKind::MeanLevenshtein,
                SimilarityKind::Hybrid,
            ][sim],
            ..ErConfig::default()
        }
    })
}

fn spj_engine(n_orgs: usize, n_projects: usize, seed: u64) -> QueryEngine {
    let orgs = openaire::organizations(n_orgs, seed);
    let projects = openaire::projects(n_projects, seed.wrapping_add(1), &orgs);
    let mut e = QueryEngine::new(ErConfig::default());
    e.register_table(orgs.table).unwrap();
    e.register_table(projects.table).unwrap();
    e
}

/// Strategies that must all agree with the Batch Approach.
const STRATEGIES: [ExecMode; 3] = [ExecMode::Nes, ExecMode::NesEager, ExecMode::Aes];

proptest! {
    #![proptest_config(ProptestConfig {
        // Each case runs several full cleanings; QUERYER_PROPTEST_CASES
        // scales the suite up (CI soaks) or down (quick local loops).
        cases: proptest_cases(8),
        .. ProptestConfig::default()
    })]

    #[test]
    fn sp_queries_equal_batch(
        seed in 0u64..1000,
        n in 150usize..400,
        year in 1995i64..2018,
        disjunct in proptest::bool::ANY,
        cfg in er_config(),
    ) {
        let e = sp_engine(n, seed, cfg.clone());
        let sql = if disjunct {
            format!(
                "SELECT DEDUP title, venue FROM dsd WHERE year <= {year} OR venue = 'edbt'"
            )
        } else {
            format!("SELECT DEDUP title, venue FROM dsd WHERE year <= {year}")
        };
        let batch = e.execute_with(&sql, ExecMode::Batch).unwrap().canonical_rows();
        for mode in STRATEGIES {
            e.clear_link_indices();
            let got = e.execute_with(&sql, mode).unwrap().canonical_rows();
            prop_assert_eq!(&got, &batch, "{:?} diverged on {} under {:?}", mode, sql, cfg);
        }
        // Warm Link Index must not change answers either.
        let warm = e.execute_with(&sql, ExecMode::Aes).unwrap().canonical_rows();
        prop_assert_eq!(&warm, &batch, "warm LI diverged under {:?}", cfg);
    }

    #[test]
    fn spj_queries_equal_batch(
        seed in 0u64..1000,
        n_orgs in 80usize..150,
        n_projects in 150usize..300,
        frac in 1usize..10,
    ) {
        let e = spj_engine(n_orgs, n_projects, seed);
        let cutoff = n_projects * frac / 10;
        let sql = format!(
            "SELECT DEDUP oap.title, oao.name FROM oap INNER JOIN oao \
             ON oap.org = oao.name WHERE oap.id < {cutoff}"
        );
        let batch = e.execute_with(&sql, ExecMode::Batch).unwrap().canonical_rows();
        for mode in [ExecMode::Nes, ExecMode::Aes, ExecMode::AesDirtyLeft, ExecMode::AesDirtyRight] {
            e.clear_link_indices();
            let got = e.execute_with(&sql, mode).unwrap().canonical_rows();
            prop_assert_eq!(&got, &batch, "{:?} diverged on {}", mode, sql);
        }
    }

    #[test]
    fn aggregates_equal_batch(seed in 0u64..1000, n in 150usize..300, cfg in er_config()) {
        let e = sp_engine(n, seed, cfg.clone());
        let sql = "SELECT DEDUP COUNT(*), MIN(year), MAX(year) FROM dsd WHERE venue = 'edbt'";
        let batch = e.execute_with(sql, ExecMode::Batch).unwrap().canonical_rows();
        for mode in STRATEGIES {
            e.clear_link_indices();
            let got = e.execute_with(sql, mode).unwrap().canonical_rows();
            prop_assert_eq!(&got, &batch, "{:?} diverged under {:?}", mode, cfg);
        }
    }
}
