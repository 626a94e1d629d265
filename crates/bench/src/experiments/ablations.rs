//! Ablations beyond the paper's tables: the design choices ARCHITECTURE.md
//! calls out — blocking function (Token vs character n-grams, the
//! Sec. 10 future-work item) and edge-weighting scheme (CBS/ECBS/JS) —
//! measured on DSD with the mid-selectivity query Q3.

use crate::report::{secs, Report};
use crate::suite::{engine_with_config, pc_of, qe_ids, run as run_query, where_of, Suite};
use queryer_core::engine::ExecMode;
use queryer_datagen::workload;
use queryer_er::{BlockingKind, ErConfig, WeightScheme};

pub(crate) fn run(suite: &mut Suite) -> Vec<Report> {
    let ds = suite.dsd().clone();
    let name = ds.table.name().to_string();
    let q3 = workload::sp_queries(&ds, &name, "year")
        .into_iter()
        .nth(2)
        .expect("Q3 exists");

    let mut rep = Report::new(
        "ablations",
        "Ablations — blocking function and edge weighting (DSD, Q3)",
        &["Variant", "TT (s)", "Comparisons", "PC", "|TBI|"],
    );

    let variants: Vec<(String, ErConfig)> = vec![
        ("token blocking (paper)".into(), ErConfig::default()),
        (
            "3-gram blocking".into(),
            ErConfig {
                blocking: BlockingKind::NGram(3),
                ..ErConfig::default()
            },
        ),
        (
            "4-gram blocking".into(),
            ErConfig {
                blocking: BlockingKind::NGram(4),
                ..ErConfig::default()
            },
        ),
        (
            "weights: ECBS".into(),
            ErConfig {
                weight_scheme: WeightScheme::Ecbs,
                ..ErConfig::default()
            },
        ),
        (
            "weights: Jaccard".into(),
            ErConfig {
                weight_scheme: WeightScheme::Js,
                ..ErConfig::default()
            },
        ),
    ];

    for (label, cfg) in variants {
        let engine = engine_with_config(&[(&name, &ds)], cfg);
        let r = run_query(&engine, &q3.sql, ExecMode::Aes);
        let qe = qe_ids(&engine, &name, where_of(&q3.sql));
        let pc = pc_of(&engine, &name, &ds, &qe);
        let tbi = engine.er_index(&name).expect("registered").n_blocks();
        rep.push_row(vec![
            label,
            secs(r.metrics.total),
            r.metrics.comparisons().to_string(),
            format!("{pc:.3}"),
            tbi.to_string(),
        ]);
    }
    rep.note(
        "Not a paper artifact: quantifies the design choices this \
         reproduction had to make. Every variant is table-level and \
         resolves transitively, so each keeps DQ ≡ BAQ (see ARCHITECTURE.md); \
         they differ in cost and recall only.",
    );
    vec![rep]
}
