//! Workload inputs, generated from the seed with `sw_seq::gen` before
//! any timer starts. The same seed gives byte-identical inputs.

use sw_seq::gen::{generate_database, generate_query, generate_query_set, DbSpec};
use sw_seq::{Alphabet, EncodedSeq};
use sw_swdb::shard::{self, ShardMeta};
use sw_swdb::{snapshot, SequenceDatabase};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One closed-loop client, dual-pool searches of long queries over a
    /// ~20k-sequence database, in process.
    ScanLong,
    /// Two closed-loop clients submitting short queries to an in-process
    /// daemon over a ~2k-sequence database.
    ServeShort,
    /// One closed-loop client driving the shard coordinator over two
    /// shard daemons of a ~20k-sequence database.
    ShardFanout,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ScanLong,
        Workload::ServeShort,
        Workload::ShardFanout,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanLong => "scan-long",
            Workload::ServeShort => "serve-short",
            Workload::ShardFanout => "shard-fanout",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Database sequences.
    pub fn db_seqs(self) -> u32 {
        match self {
            Workload::ScanLong | Workload::ShardFanout => 20_000,
            Workload::ServeShort => 2_000,
        }
    }

    /// Closed-loop clients.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeShort => 2,
            Workload::ScanLong | Workload::ShardFanout => 1,
        }
    }

    /// Shard daemons the database is split over (0: not sharded).
    pub fn shards(self) -> usize {
        match self {
            Workload::ShardFanout => 2,
            Workload::ScanLong | Workload::ServeShort => 0,
        }
    }
}

/// Hits kept per query on every workload.
pub const TOP: usize = 10;

/// Vector lanes the database is packed for (the CLI default).
pub const LANES: usize = 16;

/// Length of the fixed warm-up query that ends every set-up.
pub const WARMUP_LEN: u32 = 64;

/// Shortest query of the paper's set that scan-long runs.
pub const SCAN_MIN_LEN: usize = 1000;

/// Queries in one scan-long cycle: the paper's first three from
/// [`SCAN_MIN_LEN`] up (1000, 1500 and 2005 residues), about five
/// seconds on a 2-core host. A run repeats the cycle; its latencies are
/// scaled to the middle query's cells (`Ctx::latency_basis`).
pub const SCAN_CYCLE: usize = 3;

/// One query, with the FASTA text a client submits.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Position in the workload's query list (the span query id).
    pub id: u64,
    /// Encoded residues.
    pub seq: EncodedSeq,
    /// `>header\nRESIDUES\n`.
    pub fasta: String,
}

/// Everything a run of one workload is handed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Which workload these inputs are for.
    pub workload: Workload,
    /// The database as the program is handed it: one SWDBSNP2 snapshot,
    /// or one SWSHRD1 image per shard. A run moves these out to share
    /// them with the daemon threads.
    pub images: Vec<Vec<u8>>,
    /// The same database as sequences, in global id order — what the
    /// in-process reference searches.
    pub db: Vec<EncodedSeq>,
    /// The fixed short warm-up query.
    pub warmup: Query,
    /// The closed loop's queries, in submission order.
    pub queries: Vec<Query>,
}

/// SplitMix64 of `seed` and a stream position: the benchmark's only
/// randomness outside `sw_seq::gen`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn query(id: u64, seq: EncodedSeq, alphabet: &Alphabet) -> Query {
    let residues = String::from_utf8(alphabet.decode(&seq.residues)).expect("ascii residues");
    let fasta = format!(">{}\n{residues}\n", seq.header);
    Query { id, seq, fasta }
}

/// `n` distinct queries with lengths spread evenly over `lo..=hi`. The
/// lengths follow a fixed low-discrepancy sequence, so every prefix of
/// the list covers the range evenly and the loop's latency median does
/// not move with the seed's draw of lengths; the residues come from the
/// seed.
fn short_queries(seed: u64, n: usize, lo: u32, hi: u32, alphabet: &Alphabet) -> Vec<Query> {
    const GOLDEN: f64 = 0.618_033_988_749_895;
    let span = f64::from(hi - lo + 1);
    (0..n as u64)
        .map(|i| {
            let len = lo + ((i as f64 * GOLDEN).fract() * span) as u32;
            query(i, generate_query(len, mix(seed, i)), alphabet)
        })
        .collect()
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`, with enough
    /// distinct queries for a closed loop of `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let alphabet = Alphabet::protein();
        let fraction = f64::from(workload.db_seqs()) / 541_561.0;
        let seqs = generate_database(&DbSpec::swissprot_scaled(fraction, seed));
        let warmup = query(
            u64::MAX,
            generate_query(WARMUP_LEN, mix(seed, u64::MAX)),
            &alphabet,
        );
        let secs = seconds.max(1) as usize;
        let queries = match workload {
            Workload::ScanLong => generate_query_set(seed)
                .into_iter()
                .filter(|q| q.residues.len() >= SCAN_MIN_LEN)
                .take(SCAN_CYCLE)
                .enumerate()
                .map(|(i, q)| query(i as u64, q, &alphabet))
                .collect(),
            Workload::ServeShort => short_queries(seed, 150 * secs, 60, 250, &alphabet),
            Workload::ShardFanout => short_queries(seed, 10 * secs, 300, 600, &alphabet),
        };
        let (images, db) = if workload.shards() == 0 {
            let image = snapshot::write(&SequenceDatabase::from_sequences(seqs.clone()));
            (vec![image], seqs)
        } else {
            shard_images(seqs, workload.shards())
        };
        Inputs {
            workload,
            images,
            db,
            warmup,
            queries,
        }
    }
}

/// Cut `seqs` into `n` SWSHRD1 shard images. Shards are contiguous
/// cuts of the length-sorted parent, so in-shard id + shard base is the
/// parent's id; the parent's sequences come back in that id order.
pub fn shard_images(seqs: Vec<EncodedSeq>, n: usize) -> (Vec<Vec<u8>>, Vec<EncodedSeq>) {
    let parent = shard::length_sorted(&SequenceDatabase::from_sequences(seqs));
    let parent_digest = snapshot::content_digest(&parent);
    let ranges = shard::plan_shards(&parent, n);
    let images = ranges
        .iter()
        .enumerate()
        .map(|(i, &range)| {
            let meta = ShardMeta {
                index: i as u64,
                count: ranges.len() as u64,
                base: range.0 as u64,
                parent_digest,
            };
            shard::write_shard(&meta, &shard::slice(&parent, range))
        })
        .collect();
    (images, to_seqs(&parent))
}

/// A database's sequences in id order.
pub fn to_seqs(db: &SequenceDatabase) -> Vec<EncodedSeq> {
    db.iter()
        .map(|(id, v)| EncodedSeq {
            header: db.header(id).into(),
            residues: v.residues.to_vec(),
        })
        .collect()
}
