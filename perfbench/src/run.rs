//! One run of one workload: set-up, the closed loop, the output checks
//! and the end-to-end metrics. Every call into the program goes through
//! a public entry point and, when tracing, inside one of the
//! benchmark's own spans.

use crate::fleet::{self, Fleet, Loaded, Submitted};
use crate::inputs::{Inputs, Query, Workload, TOP};
use crate::spans::{Recorder, SpanId};
use crate::stats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sw_core::{
    DynamicSearchOutcome, HeteroEngine, HeteroSearchConfig, Hit, PreparedDb, SearchConfig,
    SearchEngine,
};
use sw_sched::FaultInjector;
use sw_seq::{Alphabet, EncodedSeq};
use sw_serve::{client, coord, json, CoordConfig, ShardSpec};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Accelerator share the split plan is seeded with (the CLI default).
pub const ACCEL_FRAC: f64 = 0.55;

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Tally {
    /// Count one operation; a failed one is noted with `what()`.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            self.notes
                .lock()
                .expect("notes poisoned by a panic")
                .push(what());
        }
        ok
    }

    /// (attempted, failed).
    pub fn counts(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }

    /// The failure notes.
    pub fn notes(&self) -> Vec<String> {
        self.notes
            .lock()
            .expect("notes poisoned by a panic")
            .clone()
    }
}

/// The wire rendering of one hit line, byte for byte as the daemon and
/// the coordinator's JSON mode emit it.
pub fn wire(rank: usize, score: i64, id: u64, header: &str) -> String {
    format!(
        "{{\"rank\":{rank},\"score\":{score},\"id\":{id},\"header\":\"{}\"}}",
        json::escape(header)
    )
}

/// Hit lines parsed off the wire, rendered back.
pub fn wire_hits(hits: &[client::HitLine]) -> Vec<String> {
    hits.iter()
        .map(|h| wire(h.rank as usize, h.score, h.id, &h.header))
        .collect()
}

/// The top [`TOP`] hits of a search, rendered as wire lines.
pub fn render(prepared: &PreparedDb, hits: &[Hit]) -> Vec<String> {
    hits.iter()
        .take(TOP)
        .enumerate()
        .map(|(i, h)| {
            wire(
                i + 1,
                h.score,
                u64::from(h.id.0),
                prepared.sorted.db().header(h.id),
            )
        })
        .collect()
}

/// In-process `SearchEngine::search` top-K, the expected output of every
/// query. Computed outside every timer and kept per query.
pub struct Reference {
    /// The database, prepared once.
    pub prepared: PreparedDb,
    /// The engine.
    pub engine: SearchEngine,
    /// Its configuration (`best`, all threads).
    pub config: SearchConfig,
    cache: Mutex<HashMap<u64, Vec<String>>>,
}

impl Reference {
    /// Prepare `db` for reference searches on `threads` threads.
    pub fn new(db: Vec<EncodedSeq>, threads: usize) -> Reference {
        Reference {
            prepared: PreparedDb::prepare(db, crate::inputs::LANES, &Alphabet::protein()),
            engine: SearchEngine::paper_default(),
            config: SearchConfig::best(threads),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The expected hit lines of `q`.
    pub fn lines(&self, q: &Query) -> Vec<String> {
        if let Some(l) = self.cache.lock().expect("cache poisoned").get(&q.id) {
            return l.clone();
        }
        let res = self
            .engine
            .search(&q.seq.residues, &self.prepared, &self.config);
        let lines = render(&self.prepared, &res.hits);
        self.cache
            .lock()
            .expect("cache poisoned")
            .insert(q.id, lines.clone());
        lines
    }
}

/// What the program runs on during a run: a prepared database searched
/// in process, or daemons reached over their sockets.
pub enum Instance {
    /// scan-long: the dual-pool entry, in process.
    InProcess(Loaded),
    /// serve-short and shard-fanout: in-process daemons.
    Daemons(Fleet),
}

/// Busy and split figures of one dual-pool search.
#[derive(Debug, Clone, Copy)]
pub struct SchedSample {
    /// Wall time of the search, s.
    pub wall_s: f64,
    /// CPU pool busy ÷ (wall × workers).
    pub cpu_busy: f64,
    /// Accelerator pool busy ÷ (wall × workers).
    pub accel_busy: f64,
    /// Share of padded cells the accelerator pool took.
    pub accel_cell_frac: f64,
    /// Chunks the accelerator pool took.
    pub accel_chunks: u64,
}

impl SchedSample {
    fn of(o: &DynamicSearchOutcome, wall_s: f64) -> SchedSample {
        let busy =
            |m: &sw_sched::DeviceMetrics| m.busy.as_secs_f64() / (wall_s * m.workers.max(1) as f64);
        SchedSample {
            wall_s,
            cpu_busy: busy(&o.cpu),
            accel_busy: busy(&o.accel),
            accel_cell_frac: o.accel_cell_fraction,
            accel_chunks: o.accel.chunks,
        }
    }
}

/// One dual-pool search with 1 cpu + 1 accel worker, exactly as
/// `swsearch hetero --dynamic` runs it.
pub fn dual_pool(
    prepared: &PreparedDb,
    q: &[u8],
) -> Result<(DynamicSearchOutcome, SchedSample), String> {
    let hetero = HeteroEngine::new(SearchEngine::paper_default());
    let t0 = Instant::now();
    let plan = hetero.plan_split(prepared, q.len(), ACCEL_FRAC);
    let out = hetero
        .search_dynamic_supervised(
            q,
            prepared,
            &plan,
            &HeteroSearchConfig::best(1, 1),
            &FaultInjector::none(),
        )
        .map_err(|e| e.to_string())?;
    let sample = SchedSample::of(&out, t0.elapsed().as_secs_f64());
    Ok((out, sample))
}

/// One completed query of the closed loop.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index into the workload's queries.
    pub query: usize,
    /// Submit to last hit, s.
    pub latency_s: f64,
    /// Real DP cells the query needed.
    pub cells: u64,
    /// Hit lines returned.
    pub lines: Vec<String>,
    /// Why the operation failed, when it did.
    pub error: Option<String>,
    /// Daemon reply with phase stamps (serve-short).
    pub submit: Option<Submitted>,
    /// Queries in the daemon region that ran this one (serve-short).
    pub region: u64,
    /// Pool figures (scan-long).
    pub sched: Option<SchedSample>,
    /// Coordinator requeues and connect retries (shard-fanout).
    pub coord: Option<(u64, u64)>,
    /// Which recorder of [`Ctx::closed_loop`] the query ran under.
    pub mode: usize,
}

impl Done {
    fn new() -> Done {
        Done {
            query: usize::MAX,
            latency_s: 0.0,
            cells: 0,
            lines: Vec::new(),
            error: None,
            submit: None,
            region: 0,
            sched: None,
            coord: None,
            mode: 0,
        }
    }
}

/// Submit `q` to a daemon and parse the stream; rejects, failures and
/// truncated streams are errors.
pub fn submit_query(
    socket: &std::path::Path,
    q: &Query,
    tenant: &str,
) -> Result<(Submitted, client::SubmitOutcome), String> {
    let line = client::submit_request(tenant, &q.fasta, TOP, None);
    let s = fleet::submit(socket, &line).map_err(|e| format!("submit: {e}"))?;
    let o = client::parse_submit_response(&s.lines)?;
    if o.state != "done" {
        return Err(format!(
            "job {} ended {}: {}",
            o.job,
            o.state,
            o.error.clone().unwrap_or_default()
        ));
    }
    Ok((s, o))
}

/// The coordinator call, with no respawns: a healthy fleet never needs
/// one, and a requeue counts as a failed operation.
pub fn coord_query(specs: &[ShardSpec], q: &Query) -> Result<coord::CoordOutcome, String> {
    let no_respawn = |spec: &ShardSpec, _attempt: u32| -> Result<(), String> {
        Err(format!("shard {} needed a respawn", spec.index))
    };
    coord::search_sharded(specs, &q.fasta, &CoordConfig::new(TOP), &no_respawn)
        .map_err(|e| e.to_string())
}

/// Everything one run shares.
pub struct Ctx {
    /// Which workload.
    pub workload: Workload,
    /// Its inputs.
    pub inputs: Inputs,
    /// The database images, shared with daemon threads.
    pub images: Arc<Vec<Vec<u8>>>,
    /// Expected outputs.
    pub reference: Reference,
    /// Worker threads of this host.
    pub threads: usize,
    /// Operations and failures.
    pub tally: Tally,
}

impl Ctx {
    /// Generate inputs and prepare the reference, outside every timer.
    pub fn new(workload: Workload, seed: u64, seconds: u64, threads: usize) -> Ctx {
        let mut inputs = Inputs::generate(workload, seed, seconds);
        let images = Arc::new(std::mem::take(&mut inputs.images));
        let reference = Reference::new(inputs.db.clone(), threads);
        reference.lines(&inputs.warmup);
        Ctx {
            workload,
            inputs,
            images,
            reference,
            threads,
            tally: Tally::default(),
        }
    }

    /// The cells scan-long's latencies are scaled to: those of the
    /// cycle's middle query (1500 residues), since its lengths differ 2×
    /// and a run holds only a few queries of each. `None` elsewhere.
    pub fn latency_basis(&self) -> Option<u64> {
        let q = &self.inputs.queries;
        (self.workload == Workload::ScanLong).then(|| self.cells(&q[q.len() / 2]))
    }

    /// Real cells of one query against the whole database.
    pub fn cells(&self, q: &Query) -> u64 {
        q.seq.residues.len() as u64 * self.reference.prepared.stats.total_residues
    }

    /// Run query `q` once against `inst` (inside span `parent`, tagged
    /// `span_query`). The caller fills in [`Done::query`].
    pub fn one_query(
        &self,
        inst: &Instance,
        q: &Query,
        tenant: &str,
        rec: &Recorder,
        parent: SpanId,
        span_query: u64,
    ) -> Done {
        let mut d = Done::new();
        d.cells = self.cells(q);
        let t0 = Instant::now();
        match inst {
            Instance::InProcess(loaded) => {
                let r = rec.wrap("core.search_dynamic", parent, Some(span_query), |_| {
                    dual_pool(&loaded.prepared, &q.seq.residues)
                });
                d.latency_s = t0.elapsed().as_secs_f64();
                match r {
                    Ok((out, sample)) => {
                        d.lines = render(&loaded.prepared, &out.results.hits);
                        d.sched = Some(sample);
                        let pools = [&out.cpu, &out.accel];
                        let requeues: u64 = pools.iter().map(|m| m.requeues + m.lost_leases).sum();
                        if out.results.degraded || requeues > 0 {
                            d.error = Some(format!(
                                "dual-pool run degraded={} with {requeues} requeued chunks",
                                out.results.degraded
                            ));
                        }
                    }
                    Err(e) => d.error = Some(e),
                }
            }
            Instance::Daemons(fleet) if self.workload == Workload::ShardFanout => {
                let specs = fleet.shard_specs();
                let r = rec.wrap("coord.search_sharded", parent, Some(span_query), |_| {
                    coord_query(&specs, q)
                });
                d.latency_s = t0.elapsed().as_secs_f64();
                match r {
                    Ok(o) => {
                        d.lines = wire_hits(&o.hits);
                        d.coord = Some((o.requeues, o.net_retries));
                        if o.requeues + o.failovers > 0 {
                            d.error = Some(format!(
                                "{} requeues, {} failovers",
                                o.requeues, o.failovers
                            ));
                        }
                    }
                    Err(e) => d.error = Some(e),
                }
            }
            Instance::Daemons(fleet) => {
                let sid = rec.begin("serve.submit", parent, Some(span_query));
                let r = submit_query(&fleet.sockets[0], q, tenant);
                rec.end(sid);
                d.latency_s = t0.elapsed().as_secs_f64();
                match r {
                    Ok((s, o)) => {
                        rec.record("serve.ack", sid, Some(span_query), s.sent, s.ack);
                        rec.record("serve.run", sid, Some(span_query), s.ack, s.first_hit);
                        rec.record("serve.stream", sid, Some(span_query), s.first_hit, s.end);
                        d.lines = s.hit_lines().to_vec();
                        d.region = o.batch;
                        d.submit = Some(s);
                    }
                    Err(e) => d.error = Some(e),
                }
            }
        }
        d
    }

    /// One set-up: hand over the images, decode, prepare, start, and
    /// return with the first verified warm-up result. Returns the live
    /// instance and the seconds it took.
    pub fn setup(&self, rec: &Arc<Recorder>) -> Result<(Instance, f64), String> {
        let expect = self.reference.lines(&self.inputs.warmup);
        let root = rec.begin("setup", None, None);
        let t0 = Instant::now();
        let inst = match self.workload {
            Workload::ScanLong => {
                Instance::InProcess(fleet::load(&self.images[0], false, rec, root)?)
            }
            Workload::ServeShort => {
                Instance::Daemons(Fleet::start(&self.images, false, rec, root)?)
            }
            Workload::ShardFanout => {
                Instance::Daemons(Fleet::start(&self.images, true, rec, root)?)
            }
        };
        let warm = rec.begin("warmup", root, None);
        let d = self.one_query(&inst, &self.inputs.warmup, "warmup", rec, warm, u64::MAX);
        rec.end(warm);
        let ok = d.error.is_none() && d.lines == expect;
        let secs = t0.elapsed().as_secs_f64();
        rec.end(root);
        self.tally.check(ok, || {
            format!("warm-up result differs from the reference: {:?}", d.error)
        });
        Ok((inst, secs))
    }

    /// The closed loop: `clients` callers, each sending its next query
    /// only after the previous reply, until `dur` has passed. Returns
    /// the completed queries and the wall time from start to the last
    /// reply.
    ///
    /// With one recorder every iteration runs a new query. With several
    /// (spans off, spans on), each query runs once under each recorder
    /// back to back, the order turning with every query, so the two
    /// modes see the same work; [`Done::mode`] says which ran.
    pub fn closed_loop(
        &self,
        inst: &Instance,
        recs: &[&Recorder],
        dur: Duration,
    ) -> (Vec<Done>, f64) {
        let queries = &self.inputs.queries;
        let modes = recs.len();
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let done: Vec<Done> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.workload.clients())
                .map(|c| {
                    let next = &next;
                    s.spawn(move || {
                        let tenant = format!("client{c}");
                        let mut out = Vec::new();
                        while start.elapsed() < dur {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let (k, turn) = (i / modes, i % modes);
                            // scan-long repeats its query cycle; the
                            // other workloads never repeat a query.
                            let qi = match self.workload {
                                Workload::ScanLong => k % queries.len(),
                                _ if k < queries.len() => k,
                                _ => break,
                            };
                            let mode = (turn + k) % modes;
                            let rec = recs[mode];
                            let root = rec.begin("query", None, Some(i as u64));
                            let mut d =
                                self.one_query(inst, &queries[qi], &tenant, rec, root, i as u64);
                            rec.end(root);
                            d.query = qi;
                            d.mode = mode;
                            out.push(d);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        (done, start.elapsed().as_secs_f64())
    }

    /// Check every completed query against the reference.
    pub fn verify(&self, done: &[Done]) {
        for d in done {
            let q = &self.inputs.queries[d.query];
            let ok = d.error.is_none() && d.lines == self.reference.lines(q);
            self.tally.check(ok, || {
                format!(
                    "query {} (m={}): {}",
                    d.query,
                    q.seq.residues.len(),
                    d.error
                        .clone()
                        .unwrap_or_else(|| "hits differ from the reference".into())
                )
            });
        }
    }
}

/// End-to-end figures of one closed loop.
#[derive(Debug, Clone, Copy)]
pub struct LoopFigures {
    /// Real cells ÷ wall, GCUPS.
    pub gcups: f64,
    /// Per-query latency summary, ms.
    pub latency: stats::Latency,
}

impl LoopFigures {
    /// Summarise a loop. With `basis_cells`, each query's latency is
    /// first scaled by `basis_cells ÷ its cells`: the latency of a query
    /// of that size, estimated from every query rather than from the few
    /// of that exact size.
    ///
    /// # Panics
    /// Panics when no query completed.
    pub fn of(done: &[Done], wall_s: f64, basis_cells: Option<u64>) -> LoopFigures {
        let cells: u64 = done.iter().map(|d| d.cells).sum();
        let lat: Vec<f64> = done
            .iter()
            .map(|d| {
                let scale = basis_cells.map_or(1.0, |b| b as f64 / d.cells as f64);
                d.latency_s * 1e3 * scale
            })
            .collect();
        LoopFigures {
            gcups: cells as f64 / wall_s / 1e9,
            latency: stats::Latency::of(&lat),
        }
    }
}
