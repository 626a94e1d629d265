//! Experiment runners, one per table/figure of the paper's evaluation.

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig9;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;

use crate::report::Report;
use crate::suite::Suite;

/// A registered experiment.
pub struct Experiment {
    /// Id ("fig9", "table6", …).
    pub id: &'static str,
    /// What it regenerates.
    pub description: &'static str,
    /// Runner.
    pub run: fn(&mut Suite) -> Vec<Report>,
}

/// All experiments, in the order they appear in the paper.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table5",
            description: "Executed comparisons by cleaning order (motivating example)",
            run: table5::run,
        },
        Experiment {
            id: "table6",
            description: "Total-time breakdown per pipeline stage (DSD & OAP, Q5)",
            run: table6::run,
        },
        Experiment {
            id: "table7",
            description: "Dataset characteristics (|E|, |L_E|, |A|, |TBI|)",
            run: table7::run,
        },
        Experiment {
            id: "table8",
            description: "Meta-blocking configurations: time & PC (Q1/Q5 on PPL1M & OAGP1M)",
            run: table8::run,
        },
        Experiment {
            id: "fig9",
            description: "QueryER vs Batch Approach: TT & comparisons for Q1–Q5",
            run: fig9::run,
        },
        Experiment {
            id: "fig10",
            description: "Scalability with fixed |QE| (Q9 over PPL & OAGP ladders)",
            run: fig10::run,
        },
        Experiment {
            id: "fig11",
            description: "Link Index effect on consecutive overlapping queries (Q10–Q13)",
            run: fig11::run,
        },
        Experiment {
            id: "fig12",
            description: "BA vs NES vs AES on SPJ queries (Q6a/b, Q7a/b)",
            run: fig12::run,
        },
        Experiment {
            id: "fig13",
            description: "NES vs AES scaling on SPJ joins (Q8a/b)",
            run: fig13::run,
        },
        Experiment {
            id: "ablations",
            description: "Design-choice ablations: blocking / weighting (extra)",
            run: ablations::run,
        },
    ]
}
