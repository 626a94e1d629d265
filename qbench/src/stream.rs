//! The four workloads: which tables each one generates and the stream
//! of SQL strings and row mutations its single client issues. Tables and
//! stream are pure functions of `--seed`.
//!
//! A stream is a sequence of **blocks**. Every block holds the same mix
//! of operations, and the selectivities inside it are stratified (one
//! draw per equal slice of the log range) and then shuffled (a session
//! of `spj_session`: rotated), so the latency distribution has no step
//! at the p50 or p95 rank. The first `pass_blocks` blocks are a
//! **pass**; a run replays that pass, each time from a fresh set-up,
//! until its time is up.

use queryer_common::Fnv64;
use queryer_datagen::{openaire, scholarly, CorruptionConfig, Corruptor};
use queryer_er::DeltaOp;
use queryer_storage::{RecordId, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

// Table sizes. ISSUE 11 asked for 20k / 20k / 10k+2.5k / 10k; the
// driver's cap (92 runs inside 3420 s) leaves about 35 s a run, set-up
// and oracle included, and a run wants its pass (240 queries, 240
// writes) five to ten times over: an operation's latency is the lowest
// of its repetitions, which is what keeps this host's slow spells out
// of the result. Sizes shrank; sample counts did not.
const SP_COLD_ROWS: usize = 5_000;
const SP_WARM_ROWS: usize = 10_000;
const SPJ_PROJECT_ROWS: usize = 3_000;
const SPJ_ORG_ROWS: usize = 750;
const LIVE_ROWS: usize = 2_500;
const PROBE_ROWS: usize = 600;

/// Name of the side table the read-only workloads write to beside their
/// timed phase (see [`Workload::writes_in_stream`]).
pub const PROBE_TABLE: &str = "probe";

/// When the engine's cross-query state is dropped (untimed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reset {
    /// Before every query: Link Index and all resolve caches.
    PerQuery,
    /// Before every block (a block is one session).
    PerBlock,
    Never,
}

/// One operation of the closed loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Query(String),
    Write { table: &'static str, op: DeltaOp },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SpCold,
    SpWarm,
    SpjSession,
    LiveIngest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SpCold,
        Workload::SpWarm,
        Workload::SpjSession,
        Workload::LiveIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpCold => "sp_cold",
            Workload::SpWarm => "sp_warm",
            Workload::SpjSession => "spj_session",
            Workload::LiveIngest => "live_ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — the same line `BENCHMARK.json` carries.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SpCold => "every query starts from empty Link Index and caches, so Edge Pruning and Comparison-Execution do the work and cache changes cannot show",
            Workload::SpWarm => "the Link Index answers everything, so parse, plan, scan, filter and Group-Entities do the work and ER none; a kernel change must leave it flat",
            Workload::SpjSession => "sessions of dedup-join queries over overlapping windows: planner, Deduplicate-Join, join and grouping carry weight and caches fill within a session",
            Workload::LiveIngest => "every sixth op is a single-row write, so delta apply, targeted invalidation and stats recompute do the work and reads meet a partly invalidated Link Index",
        }
    }

    pub fn reset(self) -> Reset {
        match self {
            Workload::SpCold => Reset::PerQuery,
            Workload::SpjSession => Reset::PerBlock,
            Workload::SpWarm | Workload::LiveIngest => Reset::Never,
        }
    }

    /// Untimed query run once after registration (part of set-up).
    pub fn warm_up(self) -> Option<&'static str> {
        match self {
            Workload::SpWarm => Some("SELECT DEDUP * FROM dsd"),
            _ => None,
        }
    }

    /// Whether every query must be answered without one comparison.
    pub fn expects_zero_comparisons(self) -> bool {
        self == Workload::SpWarm
    }

    /// Whether the timed stream itself carries writes. The other three
    /// workloads are read-only; the benchmark contract has no "not
    /// applicable", so they take their ingest latencies from untimed
    /// single-row writes to the [`PROBE_TABLE`] side table, issued
    /// between the blocks of the timed phase.
    pub fn writes_in_stream(self) -> bool {
        self == Workload::LiveIngest
    }

    /// Blocks of a pass, which always runs once whatever `--seconds`
    /// says: enough for 240 queries (and 240 writes on `live_ingest`),
    /// so that a p95 has at least twelve samples beyond it.
    pub fn pass_blocks(self) -> usize {
        match self {
            Workload::SpCold => 5,      // 5 x 48 queries
            Workload::SpWarm => 3,      // 3 x 100 queries
            Workload::SpjSession => 25, // 25 sessions x 10 queries
            Workload::LiveIngest => 24, // 24 x (50 reads + 10 writes)
        }
    }

    /// Generates the workload's tables, in registration order.
    pub fn tables(self, seed: u64) -> Vec<Table> {
        match self {
            Workload::SpCold => vec![dsd("dsd", SP_COLD_ROWS, seed)],
            Workload::SpWarm => vec![dsd("dsd", SP_WARM_ROWS, seed)],
            Workload::LiveIngest => vec![dsd("dsd", LIVE_ROWS, seed)],
            Workload::SpjSession => {
                let orgs = openaire::organizations(SPJ_ORG_ROWS, CORPUS_SEED);
                let corpus = openaire::projects(corpus_rows(SPJ_PROJECT_ROWS), CORPUS_SEED, &orgs);
                vec![
                    orgs.table,
                    sample_rows("oap", &corpus.table, SPJ_PROJECT_ROWS, seed),
                ]
            }
        }
    }

    /// The workload's operation stream over `tables`.
    pub fn stream(self, seed: u64, tables: &[Table]) -> Stream {
        // Distinct from every generator's own seeding, so queries are
        // not correlated with the rows they select.
        let rng = StdRng::seed_from_u64(seed ^ 0x51_62_65_6e_63_68 ^ ((self as u64) << 56));
        let writes = (self == Workload::LiveIngest).then(|| WriteGen::new("dsd", &tables[0]));
        Stream {
            workload: self,
            rng,
            rows: tables.last().map_or(0, Table::len),
            writes,
            blocks: 0,
        }
    }
}

/// Seed of the corpora the tables are drawn from.
const CORPUS_SEED: u64 = 0x51_42_45_4e_43_48;

/// A corpus holds an eighth as many rows again as the table drawn from
/// it.
fn corpus_rows(rows: usize) -> usize {
    rows + rows / 8
}

/// A table of `rows` rows drawn without replacement from `corpus`, in
/// seeded order, with `id` renumbered to the new positions.
///
/// The generators' token frequencies are heavy-tailed, so two corpora
/// from two seeds differ in their few largest blocks, and with them in
/// what a cold 2 % range query costs, by ±15 % at these sizes — more
/// than any bound this benchmark could then hold. Drawing every seed's
/// table from one fixed corpus keeps the block structure (each block
/// thins by a ninth, with binomial noise) while the rows left out, the
/// ids and the order of the rest still differ from seed to seed. (Two
/// rows in three instead of eight in nine: `live_ingest`'s
/// `ingest_p50_ms` spread 9 % over ten seeds instead of 5 %.)
fn sample_rows(name: &str, corpus: &Table, rows: usize, seed: u64) -> Table {
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    shuffle(&mut StdRng::seed_from_u64(seed ^ 0x64_72_61_77), &mut order);
    let mut t = Table::new(name, (**corpus.schema()).clone());
    t.reserve(rows);
    for (id, &from) in order.iter().take(rows).enumerate() {
        let mut values = corpus.records()[from].values.clone();
        values[0] = Value::Int(id as i64);
        t.push_row(values).expect("same schema");
    }
    t
}

/// A DBLP-Scholar-shaped table of `rows` rows.
fn dsd(name: &str, rows: usize, seed: u64) -> Table {
    let corpus = scholarly::dblp_scholar(corpus_rows(rows), CORPUS_SEED).table;
    sample_rows(name, &corpus, rows, seed)
}

/// The side table the read-only workloads write to.
pub fn probe_table(seed: u64) -> Table {
    dsd(PROBE_TABLE, PROBE_ROWS, seed ^ 0x70_72_6f_62_65)
}

/// The probe writes themselves: as many single-row writes as `live_ingest`
/// guarantees, in the same mix.
pub fn probe_writes(seed: u64, probe: &Table) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x74_61_69_6c);
    let mut gen = WriteGen::new(PROBE_TABLE, probe);
    (0..WRITES_PER_BLOCK * Workload::LiveIngest.pass_blocks())
        .map(|i| gen.next(&mut rng, i))
        .collect()
}

/// `m` selectivities in `[lo, hi)`, one from each equal slice of the log
/// range, in ascending order.
fn strata(rng: &mut StdRng, m: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..m)
        .map(|i| {
            let u: f64 = rng.random();
            lo * (hi / lo).powf((i as f64 + u) / m as f64)
        })
        .collect()
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// A window of `share` of `rows` ids at a random offset: `(lo, hi)`.
fn id_window(rng: &mut StdRng, rows: usize, share: f64) -> (usize, usize) {
    let width = ((rows as f64 * share).round() as usize).clamp(1, rows);
    let lo = rng.random_range(0..=rows - width);
    (lo, lo + width)
}

fn point_sql(table: &str, id: usize) -> String {
    format!("SELECT DEDUP * FROM {table} WHERE id = {id}")
}

/// A range of about `share` of the table: an id window, or — every
/// other time the share spans at least one whole year of the 33 the
/// generator draws from — a `year BETWEEN`.
fn range_sql(rng: &mut StdRng, table: &str, rows: usize, share: f64, by_year: bool) -> String {
    let years = (share * 33.0).round() as i64;
    if by_year && years >= 1 {
        let from = rng.random_range(1990..=2022 - years + 1);
        let to = from + years - 1;
        format!("SELECT DEDUP * FROM {table} WHERE year BETWEEN {from} AND {to}")
    } else {
        let (lo, hi) = id_window(rng, rows, share);
        format!("SELECT DEDUP * FROM {table} WHERE id >= {lo} AND id < {hi}")
    }
}

fn aggregate_sql(rng: &mut StdRng, table: &str, rows: usize, share: f64) -> String {
    let (lo, hi) = id_window(rng, rows, share);
    format!(
        "SELECT DEDUP COUNT(*), MIN(year), MAX(year) FROM {table} WHERE id >= {lo} AND id < {hi}"
    )
}

/// `points` point queries plus `ranged` range-shaped ones (every fifth
/// an aggregate) at stratified selectivities of 0.5–40 %, shuffled.
fn sp_block(rng: &mut StdRng, rows: usize, points: usize, ranged: usize) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..points)
        .map(|_| Op::Query(point_sql("dsd", rng.random_range(0..rows))))
        .collect();
    for (i, share) in strata(rng, ranged, 0.005, 0.40).into_iter().enumerate() {
        ops.push(Op::Query(if i % 5 == 2 {
            aggregate_sql(rng, "dsd", rows, share)
        } else {
            range_sql(rng, "dsd", rows, share, i % 2 == 1)
        }));
    }
    shuffle(rng, &mut ops);
    ops
}

/// Orders a `spj_session` session can have; see [`spj_block`].
const SESSION_ORDERS: usize = 5;

/// One session: ten dedup-joins of `oap` windows (2–100 % of the table,
/// stratified) against all of `oao`; two of them aggregate over the join.
///
/// What a query of a session costs depends on what the queries before
/// it left in the Link Index, so the order is balanced, not shuffled:
/// session `n` runs the ascending windows rotated by `n % 5`. Session 0
/// of each five is the paper's progressive widening (Fig. 11). The
/// widest window, after which the Link Index holds all of `oap`, is the
/// tenth to sixth query of a session, so two queries in ten are served
/// by the Link Index alone and the median query still resolves
/// something: with all ten rotations the median fell on the edge
/// between the two kinds and was half again as unsteady.
fn spj_block(rng: &mut StdRng, rows: usize, session: usize) -> Vec<Op> {
    const JOIN: &str = "FROM oap INNER JOIN oao ON oap.org = oao.name";
    let mut ops: Vec<Op> = strata(rng, 10, 0.02, 1.0)
        .into_iter()
        .enumerate()
        .map(|(i, share)| {
            let (lo, hi) = id_window(rng, rows, share);
            let select = if i % 5 == 3 {
                "SELECT DEDUP COUNT(*), MIN(oap.start_year), MAX(oap.end_year)"
            } else {
                "SELECT DEDUP *"
            };
            Op::Query(format!(
                "{select} {JOIN} WHERE oap.id >= {lo} AND oap.id < {hi}"
            ))
        })
        .collect();
    ops.rotate_left(session % SESSION_ORDERS);
    ops
}

pub const WRITES_PER_BLOCK: usize = 10;

/// Source of single-row writes against one table: 50 % inserts of a
/// corrupted copy of an existing row, 30 % updates, 20 % deletes. It
/// tracks the table's length and its deleted rows itself, so every op it
/// emits is valid at its point in the stream.
pub struct WriteGen {
    table: &'static str,
    /// The rows as registered: what inserts copy and updates restate.
    original: Vec<Vec<Value>>,
    deleted: Vec<bool>,
    len: usize,
    /// The ids written last, newest at the back.
    recent: VecDeque<RecordId>,
    corruptor: Corruptor,
    /// Every column but `id`.
    corruptible: Vec<usize>,
}

impl WriteGen {
    fn new(table: &'static str, registered: &Table) -> Self {
        let original: Vec<Vec<Value>> = registered
            .records()
            .iter()
            .map(|r| r.values.clone())
            .collect();
        Self {
            table,
            deleted: vec![false; original.len()],
            len: original.len(),
            corruptible: (1..registered.schema().len()).collect(),
            original,
            recent: VecDeque::new(),
            corruptor: Corruptor::new(CorruptionConfig::default()),
        }
    }

    fn live_original(&self, rng: &mut StdRng) -> usize {
        loop {
            let id = rng.random_range(0..self.original.len());
            if !self.deleted[id] {
                return id;
            }
        }
    }

    fn corrupted(&self, rng: &mut StdRng, of: usize, id: usize) -> Vec<Value> {
        let mut values = self.original[of].clone();
        self.corruptor
            .corrupt_record(rng, &mut values, &self.corruptible);
        values[0] = Value::Int(id as i64);
        values
    }

    /// The `i`-th write of the stream.
    fn next(&mut self, rng: &mut StdRng, i: usize) -> Op {
        let (op, id) = match i % WRITES_PER_BLOCK {
            0 | 2 | 4 | 6 | 8 => {
                let of = self.live_original(rng);
                let id = self.len;
                self.len += 1;
                let values = self.corrupted(rng, of, id);
                (DeltaOp::Insert { values }, id)
            }
            1 | 5 | 9 => {
                let id = self.live_original(rng);
                let values = self.corrupted(rng, id, id);
                (
                    DeltaOp::Update {
                        id: id as RecordId,
                        values,
                    },
                    id,
                )
            }
            _ => {
                let id = self.live_original(rng);
                self.deleted[id] = true;
                (DeltaOp::Delete { id: id as RecordId }, id)
            }
        };
        self.recent.push_back(id as RecordId);
        if self.recent.len() > 16 {
            self.recent.pop_front();
        }
        Op::Write {
            table: self.table,
            op,
        }
    }
}

/// A seeded sequence of blocks.
pub struct Stream {
    workload: Workload,
    rng: StdRng,
    /// Rows of the table the predicates range over, as registered.
    rows: usize,
    writes: Option<WriteGen>,
    /// Blocks handed out so far.
    blocks: usize,
}

impl Stream {
    /// The next block of operations.
    pub fn next_block(&mut self) -> Vec<Op> {
        let rng = &mut self.rng;
        let n = self.blocks;
        self.blocks += 1;
        match self.workload {
            Workload::SpCold => sp_block(rng, self.rows, 12, 36),
            Workload::SpWarm => sp_block(rng, self.rows, 50, 50),
            Workload::SpjSession => spj_block(rng, self.rows, n),
            Workload::LiveIngest => {
                let gen = self
                    .writes
                    .as_mut()
                    .expect("live_ingest has a write source");
                live_block(rng, gen, self.rows)
            }
        }
    }
}

/// Ten groups of five reads and one write. Three reads of a group are
/// point queries on recently written ids (the rows whose cached state
/// the writes just invalidated), two are id windows of 0.5–40 %.
fn live_block(rng: &mut StdRng, gen: &mut WriteGen, rows: usize) -> Vec<Op> {
    let mut shares = strata(rng, 2 * WRITES_PER_BLOCK, 0.005, 0.40);
    shuffle(rng, &mut shares);
    let mut ops = Vec::with_capacity(6 * WRITES_PER_BLOCK);
    for g in 0..WRITES_PER_BLOCK {
        for r in 0..5 {
            ops.push(Op::Query(if r % 2 == 0 {
                let id = if gen.recent.is_empty() {
                    rng.random_range(0..rows)
                } else {
                    gen.recent[rng.random_range(0..gen.recent.len())] as usize
                };
                point_sql("dsd", id)
            } else {
                range_sql(rng, "dsd", rows, shares[2 * g + r / 2], false)
            }));
        }
        ops.push(gen.next(rng, g));
    }
    ops
}

/// Hash of an operation list: two runs that print the same value were
/// given identical input.
pub fn fingerprint<'a>(ops: impl IntoIterator<Item = &'a Op>) -> u64 {
    let mut h = Fnv64::new();
    for op in ops {
        match op {
            Op::Query(sql) => h.update(sql.as_bytes()),
            Op::Write { table, op } => h.update(format!("{table}:{op:?}").as_bytes()),
        }
        h.update(b"\n");
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_blocks(w: Workload, seed: u64, tables: &[Table], n: usize) -> Vec<Op> {
        let mut s = w.stream(seed, tables);
        (0..n).flat_map(|_| s.next_block()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            // Small stand-in tables: the stream reads only their length
            // (and, for writes, their rows).
            let tables: Vec<Table> = match w {
                Workload::SpjSession => {
                    let o = openaire::organizations(60, 3);
                    let p = openaire::projects(200, 3, &o);
                    vec![o.table, p.table]
                }
                _ => vec![scholarly::dblp_scholar(300, 3).table],
            };
            let a = first_blocks(w, 11, &tables, 3);
            let b = first_blocks(w, 11, &tables, 3);
            let c = first_blocks(w, 12, &tables, 3);
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(fingerprint(&a), fingerprint(&b));
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", w.name());
        }
    }

    #[test]
    fn blocks_hold_the_advertised_mix() {
        let t = vec![scholarly::dblp_scholar(300, 5).table];
        let cold = first_blocks(Workload::SpCold, 1, &t, 1);
        assert_eq!(cold.len(), 48);
        let points = cold
            .iter()
            .filter(|op| matches!(op, Op::Query(q) if q.contains("WHERE id = ")))
            .count();
        let aggregates = cold
            .iter()
            .filter(|op| matches!(op, Op::Query(q) if q.contains("COUNT(*)")))
            .count();
        assert_eq!((points, aggregates), (12, 7));

        let live = first_blocks(Workload::LiveIngest, 1, &t, 1);
        assert_eq!(live.len(), 60);
        for (i, op) in live.iter().enumerate() {
            assert_eq!(matches!(op, Op::Write { .. }), i % 6 == 5, "op {i}");
        }
        let kinds: Vec<u8> = live
            .iter()
            .filter_map(|op| match op {
                Op::Write { op, .. } => Some(match op {
                    DeltaOp::Insert { .. } => b'i',
                    DeltaOp::Update { .. } => b'u',
                    DeltaOp::Delete { .. } => b'd',
                }),
                Op::Query(_) => None,
            })
            .collect();
        assert_eq!(kinds, b"iuidiuidiu");
    }

    #[test]
    fn sessions_rotate_the_ascending_windows() {
        let o = openaire::organizations(60, 3);
        let p = openaire::projects(400, 3, &o);
        let ops = first_blocks(Workload::SpjSession, 1, &[o.table, p.table], 6);
        let widths: Vec<usize> = ops
            .iter()
            .map(|op| {
                let Op::Query(q) = op else {
                    panic!("sessions hold queries only")
                };
                let bound = |after: &str| -> usize {
                    let tail = &q[q.find(after).expect(after) + after.len()..];
                    tail.split(' ').next().unwrap().parse().unwrap()
                };
                bound("oap.id < ") - bound("oap.id >= ")
            })
            .collect();
        for (n, session) in widths.chunks(10).enumerate() {
            let mut ascending = session.to_vec();
            ascending.rotate_right(n % SESSION_ORDERS);
            assert!(ascending.windows(2).all(|w| w[0] <= w[1]), "session {n}");
        }
    }

    #[test]
    fn strata_cover_the_log_range_in_order() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = strata(&mut rng, 36, 0.005, 0.40);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s[0] >= 0.005 && s[35] < 0.40);
        // Each slice of the log range holds exactly one draw.
        for (i, v) in s.iter().enumerate() {
            let slot = ((v / 0.005).ln() / (80f64).ln() * 36.0).floor() as usize;
            assert_eq!(slot, i);
        }
    }

    #[test]
    fn writes_stay_valid_as_the_table_grows() {
        let t = scholarly::dblp_scholar(200, 2).table;
        let mut shadow = t.clone();
        let ops = probe_writes(7, &t);
        assert_eq!(ops.len(), 240);
        for op in &ops {
            let Op::Write { op, .. } = op else {
                panic!("probe writes hold writes only")
            };
            if let DeltaOp::Insert { values } = op {
                assert_eq!(values[0], Value::Int(shadow.len() as i64));
            }
            op.apply_to_table(&mut shadow).expect("valid at its point");
        }
        assert_eq!(shadow.len(), 200 + 120);
    }
}
