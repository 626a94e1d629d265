//! Command line of `qbench`.

use crate::stream::Workload;

pub const USAGE: &str = "\
qbench — the repository's benchmark: one client issues SQL text and row
batches to QueryEngine, end to end, with per-layer attribution.

USAGE:
    qbench --all [--seed N] [--seconds N] [--repeat K]
    qbench --workload NAME [--seed N] [--seconds N] [--trace [0|1]] [--repeat K]

    --all            every workload, each in a child process of its own:
                     once untraced (end-to-end metrics), once traced
                     (per-layer metrics)
    --workload NAME  one workload, in this process: sp_cold, sp_warm,
                     spj_session, live_ingest
    --seed N         seed of the generated tables and streams [11]
    --seconds N      length of the timed phase in seconds [30]; a
                     workload's pass always runs once, then again until
                     the time is up
    --trace [0|1]    1 (or bare): the traced pass, per-layer metrics and
                     <target>/qbench/<workload>.trace.jsonl; 0: end to end
    --repeat K       K untraced runs per workload, with seeds N..N+K-1;
                     prints min / median / max and quartile distance of
                     each end-to-end metric
    --allow-env      run although a QUERYER_* variable is set
    --help           this text

The last line of a --workload run's standard output is one JSON object:
{\"correct\", \"attempted\", \"failed\", \"metrics\"}.";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `None`: every workload.
    pub workload: Option<Workload>,
    pub all: bool,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
    pub allow_env: bool,
    pub help: bool,
}

const FLAGS: &str = "--all, --workload, --seed, --seconds, --trace, --repeat, --allow-env, --help";

fn workload_names() -> String {
    Workload::ALL.map(Workload::name).join(", ")
}

/// Parses the arguments after the program name. An `Err` is the message
/// to print before exiting non-zero; it names the valid choices.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        all: false,
        seed: 11,
        seconds: 30.0,
        trace: false,
        repeat: None,
        allow_env: false,
        help: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value ({what})"))
        };
        match arg.as_str() {
            "--all" => out.all = true,
            "--allow-env" => out.allow_env = true,
            "--help" | "-h" => out.help = true,
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    format!("unknown workload {name:?}; valid: {}", workload_names())
                })?);
            }
            "--seed" => {
                let v = value("a whole number")?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants a whole number, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value("seconds")?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds wants 0 < N <= 600, got {v:?}"))?;
            }
            "--repeat" => {
                let v = value("a count")?;
                out.repeat = Some(
                    v.parse()
                        .ok()
                        .filter(|k| (2..=100).contains(k))
                        .ok_or_else(|| format!("--repeat wants 2..=100, got {v:?}"))?,
                );
            }
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}; valid flags: {FLAGS}")),
        }
    }
    if !out.help && out.all == out.workload.is_some() {
        return Err(format!(
            "give exactly one of --all and --workload NAME; valid workloads: {}",
            workload_names()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse(&args("--workload sp_warm --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::SpWarm));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, true));
        let a = parse(&args("--workload sp_warm --trace 0 --seed 3")).unwrap();
        assert_eq!((a.trace, a.seed), (false, 3));
        assert!(parse(&args("--all --trace")).unwrap().trace);
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        let e = parse(&args("--workload sp_tepid")).unwrap_err();
        assert!(
            e.contains("sp_cold, sp_warm, spj_session, live_ingest"),
            "{e}"
        );
        let e = parse(&args("--all --frobnicate")).unwrap_err();
        assert!(e.contains("--workload") && e.contains("--repeat"), "{e}");
        assert!(parse(&args("")).is_err(), "neither --all nor --workload");
        assert!(parse(&args("--all --workload sp_cold")).is_err());
        assert!(parse(&args("--all --seconds 0")).is_err());
        assert!(parse(&args("--help")).unwrap().help);
    }
}
