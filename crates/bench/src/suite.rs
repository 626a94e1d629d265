//! The dataset suite: builds (and memoises) every dataset the evaluation
//! uses at the configured scale, and provides engine / measurement
//! helpers shared by the experiments.

use crate::scale::{paper, Sizes};
use queryer_common::FxHashSet;
use queryer_core::engine::{ExecMode, QueryEngine};
use queryer_core::QueryResult;
use queryer_datagen::{openaire, person, scholarly, Dataset};
use queryer_er::ErConfig;
use queryer_storage::RecordId;

/// Lazily-built datasets at one scale.
pub struct Suite {
    /// Scale in effect.
    pub sizes: Sizes,
    dsd: Option<Dataset>,
    oao: Option<Dataset>,
    oap: Option<Dataset>,
    oagv: Option<Dataset>,
    ppl: Vec<(usize, Dataset)>,
    oagp: Vec<(usize, Dataset)>,
}

impl Suite {
    /// Creates an empty suite at the environment's scale.
    pub fn from_env() -> Self {
        Self::new(Sizes::from_env())
    }

    /// Creates an empty suite at an explicit scale.
    pub fn new(sizes: Sizes) -> Self {
        Self {
            sizes,
            dsd: None,
            oao: None,
            oap: None,
            oagv: None,
            ppl: Vec::new(),
            oagp: Vec::new(),
        }
    }

    /// DBLP-Scholar-shaped dataset.
    pub fn dsd(&mut self) -> &Dataset {
        let n = self.sizes.of(paper::DSD);
        self.dsd
            .get_or_insert_with(|| scholarly::dblp_scholar(n, 0xD5D))
    }

    /// OpenAIRE organisations.
    pub fn oao(&mut self) -> &Dataset {
        let n = self.sizes.of(paper::OAO);
        self.oao
            .get_or_insert_with(|| openaire::organizations(n, 0x0A0))
    }

    /// OpenAIRE projects (references OAO).
    pub fn oap(&mut self) -> &Dataset {
        if self.oap.is_none() {
            let orgs = self.oao().clone();
            let n = self.sizes.of(paper::OAP);
            self.oap = Some(openaire::projects(n, 0x0A9, &orgs));
        }
        self.oap.as_ref().expect("just built")
    }

    /// OAG venues.
    pub fn oagv(&mut self) -> &Dataset {
        let n = self.sizes.of(paper::OAGV);
        self.oagv
            .get_or_insert_with(|| scholarly::oag_venues(n, 0xA61))
    }

    /// People dataset at a paper size (e.g. `paper::PPL[4]` = PPL2M).
    pub fn ppl(&mut self, paper_size: usize) -> &Dataset {
        let n = self.sizes.of(paper_size);
        if !self.ppl.iter().any(|(k, _)| *k == n) {
            let orgs = self.oao().clone();
            let ds = person::people(n, 0x991, &orgs);
            self.ppl.push((n, ds));
        }
        &self.ppl.iter().find(|(k, _)| *k == n).expect("cached").1
    }

    /// OAG papers at a paper size (references OAGV).
    pub fn oagp(&mut self, paper_size: usize) -> &Dataset {
        let n = self.sizes.of(paper_size);
        if !self.oagp.iter().any(|(k, _)| *k == n) {
            let venues = self.oagv().clone();
            let ds = scholarly::oag_papers(n, 0xA69, &venues);
            self.oagp.push((n, ds));
        }
        &self.oagp.iter().find(|(k, _)| *k == n).expect("cached").1
    }
}

/// Registers datasets in a fresh engine under the given names.
pub fn engine_with(tables: &[(&str, &Dataset)]) -> QueryEngine {
    engine_with_config(tables, ErConfig::default())
}

/// Registers datasets in a fresh engine with an explicit ER config
/// (Table 8 sweeps meta-blocking configurations this way).
pub fn engine_with_config(tables: &[(&str, &Dataset)], cfg: ErConfig) -> QueryEngine {
    let mut e = QueryEngine::new(cfg);
    for (name, ds) in tables {
        let mut t = ds.table.clone();
        // Tables may be registered under experiment-specific names.
        if t.name() != *name {
            t = rename(&ds.table, name);
        }
        e.register_table(t).expect("register dataset");
    }
    e
}

fn rename(table: &queryer_storage::Table, name: &str) -> queryer_storage::Table {
    let mut t = queryer_storage::Table::new(name, (**table.schema()).clone());
    t.reserve(table.len());
    for r in table.records() {
        t.push_row(r.values.clone()).expect("same schema");
    }
    t
}

/// The record ids selected by a predicate (ground-truth QE for PC
/// measurement), obtained with a plain SQL projection of `id`.
pub fn qe_ids(
    engine: &QueryEngine,
    table: &str,
    where_clause: Option<&str>,
) -> FxHashSet<RecordId> {
    let sql = match where_clause {
        Some(w) => format!("SELECT id FROM {table} WHERE {w}"),
        None => format!("SELECT id FROM {table}"),
    };
    let r = engine
        .execute_with(&sql, ExecMode::Plain)
        .expect("qe selection");
    r.rows
        .iter()
        .filter_map(|row| row[0].as_int())
        .map(|i| i as RecordId)
        .collect()
}

/// Pair Completeness of the links currently in the engine's LI for a
/// query entity set, against the dataset's ground truth.
pub fn pc_of(engine: &QueryEngine, table: &str, ds: &Dataset, qe: &FxHashSet<RecordId>) -> f64 {
    engine
        .with_link_index(table, |li| {
            ds.truth.pc_for_qe(qe, |a, b| li.label(a) == li.label(b))
        })
        .expect("table registered")
}

/// Extracts the WHERE clause text from a workload query's SQL.
pub fn where_of(sql: &str) -> Option<&str> {
    sql.split_once(" WHERE ").map(|(_, w)| w)
}

/// Runs a query under a mode and returns the result (panicking on error —
/// experiment queries are well-formed by construction).
pub fn run(engine: &QueryEngine, sql: &str, mode: ExecMode) -> QueryResult {
    engine
        .execute_with(sql, mode)
        .unwrap_or_else(|e| panic!("query failed under {mode:?}: {e}\n{sql}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_builds_and_caches() {
        let mut s = Suite::new(Sizes::with_divisor(2000));
        let n1 = s.dsd().len();
        let n2 = s.dsd().len();
        assert_eq!(n1, n2);
        assert!(s.oao().len() >= 250);
        assert!(s.oap().len() >= 250);
    }

    #[test]
    fn qe_and_pc_helpers() {
        let mut s = Suite::new(Sizes::with_divisor(2000));
        let ds = s.dsd().clone();
        let e = engine_with(&[("dsd", &ds)]);
        let qe = qe_ids(&e, "dsd", Some("year <= 2000"));
        assert!(!qe.is_empty());
        // Before any dedup query the LI is empty: PC counts only pairs
        // that touch qe, none linked yet (1.0 only if no relevant pairs).
        let _ = pc_of(&e, "dsd", &ds, &qe);
        run(
            &e,
            "SELECT DEDUP * FROM dsd WHERE year <= 2000",
            ExecMode::Aes,
        );
        let pc = pc_of(&e, "dsd", &ds, &qe);
        assert!(pc > 0.5, "after resolution most pairs are linked: {pc}");
    }

    #[test]
    fn where_extraction() {
        assert_eq!(where_of("SELECT * FROM t WHERE a = 1"), Some("a = 1"));
        assert_eq!(where_of("SELECT * FROM t"), None);
    }
}
