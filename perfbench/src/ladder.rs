//! Per-layer metrics of the traced run. A layer the workload's own loop
//! crosses is read from that loop; every other layer is probed on the
//! workload's own database and queries, so each traced run reports
//! every layer.

use crate::fleet::Fleet;
use crate::inputs::{shard_images, Query, Workload, LANES, TOP};
use crate::run::{
    coord_query, dual_pool, render, submit_query, wire_hits, Ctx, Done, Instance, Reference,
    SchedSample,
};
use crate::spans::{Recorder, Span, SpanId};
use crate::stats::median;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use sw_core::SearchConfig;
use sw_kernels::arch::{sw_isa_adaptive_sp, sw_isa_sp};
use sw_kernels::blocked::block_rows_for_cache;
use sw_kernels::{sw_score_scalar, KernelIsa};
use sw_serve::client::HitLine;
use sw_serve::coord;
use sw_swdb::{LaneBatcher, SequenceProfile, SequenceProfileI8, SortedDb};

/// Real cells one kernel-probe pass covers (batches are sampled evenly).
const PROBE_CELLS: u64 = 200_000_000;

/// Least kernel time a probe measures, s.
const PROBE_SECS: f64 = 0.25;

/// Metric name → value.
pub type Layers = BTreeMap<&'static str, f64>;

/// Kernel probes: each ISA at its native width — i16 lanes for the
/// i16 kernel, i8 lanes for the adaptive cascade — and the portable
/// kernels at the default width.
const ISAS: [(KernelIsa, usize, usize, &str, &str); 3] = [
    (
        KernelIsa::Portable,
        16,
        16,
        "kernels.gcups.portable.i16",
        "kernels.gcups.portable.adaptive",
    ),
    (
        KernelIsa::Sse2,
        8,
        16,
        "kernels.gcups.sse2.i16",
        "kernels.gcups.sse2.adaptive",
    ),
    (
        KernelIsa::Avx2,
        16,
        32,
        "kernels.gcups.avx2.i16",
        "kernels.gcups.avx2.adaptive",
    ),
];

/// Sample queries the probes run.
fn sample_size(w: Workload) -> usize {
    match w {
        Workload::ServeShort => 12,
        Workload::ScanLong | Workload::ShardFanout => 2,
    }
}

/// Median over set-ups of the slowest span called `name` in each.
fn per_setup_max(spans: &[Span], name: &str) -> f64 {
    let mut worst: HashMap<usize, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(p) = s.parent.filter(|&p| spans[p].name == "setup") {
            let e = worst.entry(p).or_insert(0.0);
            *e = e.max(s.dur_us() / 1e6);
        }
    }
    let v: Vec<f64> = worst.into_values().collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// One single-thread pass of `q` over the whole database with the
/// detected ISA: (SP build s, kernel s).
fn pass_probe(r: &Reference, q: &[u8]) -> (f64, f64) {
    let (params, db) = (&r.engine.params, &r.prepared);
    let isa = KernelIsa::detect();
    let block = SearchConfig::best(1).effective_block_rows(LANES);
    let (mut sp_s, mut kernel_s) = (0.0, 0.0);
    for b in &db.batches {
        let t0 = Instant::now();
        let sp = SequenceProfile::build(b, &params.matrix, &db.alphabet);
        let t1 = Instant::now();
        black_box(sw_isa_sp::<LANES>(isa, q, &sp, b, &params.gap, Some(block)));
        sp_s += (t1 - t0).as_secs_f64();
        kernel_s += t1.elapsed().as_secs_f64();
    }
    (sp_s, kernel_s)
}

/// Single-thread kernel throughput of `isa` at `L` lanes over evenly
/// sampled batches, SP prebuilt; checks two lanes per batch against
/// `sw_score_scalar`.
fn isa_probe<const L: usize>(
    ctx: &Ctx,
    isa: KernelIsa,
    adaptive: bool,
    sorted: &SortedDb,
    q: &[u8],
) -> f64 {
    let params = &ctx.reference.engine.params;
    let alphabet = &ctx.reference.prepared.alphabet;
    let batches = LaneBatcher::new(L, alphabet).batch(sorted);
    let m = q.len();
    let total: u64 = batches.iter().map(|b| b.real_cells(m)).sum();
    let stride = (total / PROBE_CELLS).max(1) as usize;
    let block = Some(block_rows_for_cache(256 * 1024, L));
    let (mut cells, mut secs, mut pass) = (0u64, 0.0, 0);
    while pass == 0 || secs < PROBE_SECS {
        for b in batches.iter().step_by(stride) {
            let sp = SequenceProfile::build(b, &params.matrix, alphabet);
            let sp8 = adaptive.then(|| SequenceProfileI8::from_wide(&sp));
            let t0 = Instant::now();
            let out = match &sp8 {
                Some(sp8) => sw_isa_adaptive_sp::<L>(isa, q, &sp, sp8, b, &params.gap).0,
                None => sw_isa_sp::<L>(isa, q, &sp, b, &params.gap, block),
            };
            secs += t0.elapsed().as_secs_f64();
            cells += b.real_cells(m);
            if pass == 0 {
                for lane in [0, b.real_lanes() - 1] {
                    if out.overflowed[lane] {
                        continue; // saturated lanes are the engine's rescue, not the kernel's
                    }
                    let subject = sorted.db().seq(b.ids()[lane]).residues;
                    let expect = sw_score_scalar(q, subject, params);
                    ctx.tally.check(out.scores[lane] == expect, || {
                        format!(
                            "{isa} kernel (adaptive={adaptive}) lane score {} != scalar {expect}",
                            out.scores[lane]
                        )
                    });
                }
            }
        }
        pass += 1;
    }
    cells as f64 / secs / 1e9
}

/// Dual-pool figures and in-process times of `queries` on `prepared`.
fn inproc(ctx: &Ctx, prepared: &sw_core::PreparedDb, queries: &[&Query]) -> Vec<SchedSample> {
    queries
        .iter()
        .filter_map(|q| {
            let r = dual_pool(prepared, &q.seq.residues);
            ctx.tally.check(r.is_ok(), || {
                format!("in-process dual-pool probe failed: {:?}", r.as_ref().err())
            });
            r.ok().map(|(_, s)| s)
        })
        .collect()
}

#[derive(Default)]
struct Acc {
    sched: Vec<SchedSample>,
    ack: Vec<f64>,
    run: Vec<f64>,
    stream: Vec<f64>,
    region: Vec<f64>,
    serve_overhead: Vec<f64>,
    shard_ms: Vec<f64>,
    coord_overhead: Vec<f64>,
    merge_us: Vec<f64>,
    requeues: u64,
    net_retries: u64,
}

impl Acc {
    fn phases(&mut self, s: &crate::fleet::Submitted, region: u64) {
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        self.ack.push(ms(s.sent, s.ack));
        self.run.push(ms(s.ack, s.first_hit));
        self.stream.push(ms(s.first_hit, s.end));
        self.region.push(region as f64);
    }
}

/// Serve probe for a workload that does not cross the daemon: one
/// daemon on the workload's image, sample queries submitted one at a
/// time, compared with the loop's in-process time of the same query.
fn serve_probe(
    ctx: &Ctx,
    rec: &Arc<Recorder>,
    parent: SpanId,
    samples: &[&Done],
    acc: &mut Acc,
) -> Result<(), String> {
    let fleet = Fleet::start(&ctx.images, false, rec, parent)?;
    for d in samples {
        let q = &ctx.inputs.queries[d.query];
        let r = rec.wrap("serve.submit", parent, Some(q.id), |_| {
            submit_query(&fleet.sockets[0], q, "probe")
        });
        let ok = matches!(&r, Ok((s, _)) if s.hit_lines() == ctx.reference.lines(q).as_slice());
        if ctx.tally.check(ok, || {
            format!("serve probe: query {} wrong or failed", d.query)
        }) {
            let (s, o) = r.expect("checked above");
            acc.phases(&s, o.batch);
            acc.serve_overhead
                .push((s.end - s.sent).as_secs_f64() * 1e3 - d.latency_s * 1e3);
        }
    }
    Ok(())
}

/// Coordinator probe: each sample query through `coord::search_sharded`,
/// then directly to each worker in turn; the merge timed on the direct
/// replies. On shard-fanout, whose daemons are the workload's own shard
/// workers, the direct replies also give the serve and sched figures.
fn coord_probe(
    ctx: &Ctx,
    fleet: &Fleet,
    reference: &Reference,
    queries: &[&Query],
    rec: &Recorder,
    parent: SpanId,
    acc: &mut Acc,
) {
    let serve = ctx.workload == Workload::ShardFanout;
    let specs = fleet.shard_specs();
    for q in queries {
        let t0 = Instant::now();
        let r = rec.wrap("coord.search_sharded", parent, Some(q.id), |_| {
            coord_query(&specs, q)
        });
        let coord_ms = t0.elapsed().as_secs_f64() * 1e3;
        let merged = r.as_ref().ok().map(|o| wire_hits(&o.hits));
        let expect = reference.lines(q);
        let ok = r.as_ref().is_ok_and(|o| o.requeues + o.failovers == 0)
            && merged.as_ref() == Some(&expect);
        if !ctx.tally.check(ok, || {
            format!("coord probe: query {} wrong or failed", q.id)
        }) {
            continue;
        }
        let o = r.expect("checked above");
        acc.requeues += o.requeues;
        acc.net_retries += o.net_retries;
        let mut per_shard: Vec<Vec<HitLine>> = Vec::new();
        let mut slowest: f64 = 0.0;
        for (i, socket) in fleet.sockets.iter().enumerate() {
            let r = rec.wrap("serve.submit", parent, Some(q.id), |_| {
                submit_query(socket, q, "probe")
            });
            if !ctx.tally.check(r.is_ok(), || {
                format!("direct submit to shard {i} failed: {:?}", r.as_ref().err())
            }) {
                continue;
            }
            let (s, o) = r.expect("checked above");
            let ms = (s.end - s.sent).as_secs_f64() * 1e3;
            slowest = slowest.max(ms);
            if serve {
                acc.phases(&s, o.batch);
                let local = inproc(ctx, &fleet.loaded[i].prepared, &[q]);
                acc.serve_overhead
                    .extend(local.iter().map(|l| ms - l.wall_s * 1e3));
                acc.sched.extend(local);
            }
            per_shard.push(o.hits);
        }
        const REPS: u32 = 100;
        let t0 = Instant::now();
        for _ in 0..REPS {
            black_box(coord::merge_hits(black_box(per_shard.clone()), TOP));
        }
        acc.merge_us
            .push(t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
        acc.shard_ms.push(slowest);
        acc.coord_overhead.push(coord_ms - slowest);
    }
}

/// The set-up layers, from the spans of every set-up of the run.
pub fn setup_layers(spans: &[Span], l: &mut Layers) {
    l.insert(
        "swdb.snapshot_read_s",
        per_setup_max(spans, "swdb.snapshot_read"),
    );
    l.insert("swdb.prepare_s", per_setup_max(spans, "swdb.prepare"));
}

/// Every per-layer metric for this run but the set-up layers
/// ([`setup_layers`]). `traced` holds the loop's
/// queries that ran with spans on; `overhead_frac` compares them with
/// the same queries run with spans off.
pub fn measure(
    ctx: &Ctx,
    inst: &Instance,
    traced: &[Done],
    overhead_frac: f64,
    rec: &Arc<Recorder>,
) -> Result<Layers, String> {
    let mut l = Layers::new();
    l.insert("trace.overhead_frac", overhead_frac);

    let samples: Vec<&Done> = traced.iter().take(sample_size(ctx.workload)).collect();
    let q0 = &ctx.inputs.queries[samples.first().map_or(0, |d| d.query)];
    let probe = |name: &'static str| rec.begin(name, None, Some(q0.id));

    let span = probe("probe.pass");
    let (sp_s, kernel_s) = pass_probe(&ctx.reference, &q0.seq.residues);
    rec.end(span);
    l.insert("swdb.sp_build_s", sp_s);
    l.insert("swdb.sp_build_share", sp_s / (sp_s + kernel_s));

    let span = probe("probe.kernels");
    let sorted = &ctx.reference.prepared.sorted;
    let q = &q0.seq.residues;
    let kernel = |isa, adaptive, lanes| match lanes {
        8 => isa_probe::<8>(ctx, isa, adaptive, sorted, q),
        16 => isa_probe::<16>(ctx, isa, adaptive, sorted, q),
        32 => isa_probe::<32>(ctx, isa, adaptive, sorted, q),
        _ => unreachable!("kernels are monomorphised for 8/16/32 lanes"),
    };
    for (isa, i16_lanes, i8_lanes, i16_name, adaptive_name) in ISAS {
        let available = isa.is_available();
        let gcups = |adaptive, lanes| {
            if available {
                kernel(isa, adaptive, lanes)
            } else {
                0.0
            }
        };
        l.insert(i16_name, gcups(false, i16_lanes));
        l.insert(adaptive_name, gcups(true, i8_lanes));
    }
    rec.end(span);

    let span = probe("probe.engine");
    let t0 = Instant::now();
    let r = &ctx.reference;
    let res = r
        .engine
        .search(q, &r.prepared, &SearchConfig::best(ctx.threads));
    let wall = t0.elapsed().as_secs_f64();
    rec.end(span);
    ctx.tally
        .check(render(&r.prepared, &res.hits) == r.lines(q0), || {
            "engine probe differs from the reference".into()
        });
    l.insert("engine.gcups", res.cells.real as f64 / wall / 1e9);
    l.insert(
        "engine.efficiency",
        (sp_s + kernel_s) / (wall * ctx.threads as f64),
    );
    l.insert("kernels.rescued_lanes", res.lanes_rescued as f64);

    let mut acc = Acc::default();
    let sample_queries: Vec<&Query> = samples
        .iter()
        .map(|d| &ctx.inputs.queries[d.query])
        .collect();
    match (ctx.workload, inst) {
        (Workload::ScanLong, Instance::InProcess(_)) => {
            acc.sched.extend(traced.iter().filter_map(|d| d.sched));
            let span = probe("probe.serve");
            serve_probe(ctx, rec, span, &samples, &mut acc)?;
            rec.end(span);
        }
        (Workload::ServeShort, Instance::Daemons(fleet)) => {
            for d in traced {
                if let Some(s) = &d.submit {
                    acc.phases(s, d.region);
                }
            }
            let span = probe("probe.sched");
            let local = inproc(ctx, &fleet.loaded[0].prepared, &sample_queries);
            rec.end(span);
            for (d, s) in samples.iter().zip(&local) {
                acc.serve_overhead.push((d.latency_s - s.wall_s) * 1e3);
            }
            acc.sched.extend(local);
        }
        (Workload::ShardFanout, Instance::Daemons(fleet)) => {
            for d in traced {
                if let Some((requeues, retries)) = d.coord {
                    acc.requeues += requeues;
                    acc.net_retries += retries;
                }
            }
            let span = probe("probe.coord");
            coord_probe(
                ctx,
                fleet,
                &ctx.reference,
                &sample_queries,
                rec,
                span,
                &mut acc,
            );
            rec.end(span);
        }
        _ => unreachable!("each workload runs on its own kind of instance"),
    }
    if ctx.workload != Workload::ShardFanout {
        // Two shard daemons of this workload's database.
        let span = probe("probe.coord");
        let (images, parent) = shard_images(ctx.inputs.db.clone(), 2);
        let reference = Reference::new(parent, ctx.threads);
        let fleet = Fleet::start(&Arc::new(images), true, rec, span)?;
        coord_probe(
            ctx,
            &fleet,
            &reference,
            &sample_queries,
            rec,
            span,
            &mut acc,
        );
        rec.end(span);
    }

    let s = &acc.sched;
    let cpu: Vec<f64> = s.iter().map(|x| x.cpu_busy).collect();
    let accel: Vec<f64> = s.iter().map(|x| x.accel_busy).collect();
    let tail: Vec<f64> = s
        .iter()
        .map(|x| 1.0 - x.cpu_busy.min(x.accel_busy))
        .collect();
    let frac: Vec<f64> = s.iter().map(|x| x.accel_cell_frac).collect();
    let chunks: Vec<f64> = s.iter().map(|x| x.accel_chunks as f64).collect();
    l.insert("sched.cpu_busy_frac", med(&cpu));
    l.insert("sched.accel_busy_frac", med(&accel));
    l.insert("sched.tail_idle_frac", med(&tail));
    l.insert("sched.accel_cell_frac", med(&frac));
    l.insert("sched.accel_chunks", med(&chunks));
    l.insert("serve.ack_ms", med(&acc.ack));
    l.insert("serve.run_ms", med(&acc.run));
    l.insert("serve.stream_ms", med(&acc.stream));
    l.insert("serve.overhead_ms", med(&acc.serve_overhead));
    l.insert("serve.region_size", med(&acc.region));
    l.insert("coord.shard_ms", med(&acc.shard_ms));
    l.insert("coord.overhead_ms", med(&acc.coord_overhead));
    l.insert("coord.merge_us", med(&acc.merge_us));
    l.insert("coord.requeues", acc.requeues as f64);
    l.insert("coord.net_retries", acc.net_retries as f64);
    Ok(l)
}

/// Every per-layer metric with its unit, in report order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("swdb.snapshot_read_s", "s"),
    ("swdb.prepare_s", "s"),
    ("swdb.sp_build_s", "s"),
    ("swdb.sp_build_share", "ratio"),
    ("kernels.gcups.portable.i16", "GCUPS"),
    ("kernels.gcups.portable.adaptive", "GCUPS"),
    ("kernels.gcups.sse2.i16", "GCUPS"),
    ("kernels.gcups.sse2.adaptive", "GCUPS"),
    ("kernels.gcups.avx2.i16", "GCUPS"),
    ("kernels.gcups.avx2.adaptive", "GCUPS"),
    ("kernels.rescued_lanes", "count"),
    ("engine.gcups", "GCUPS"),
    ("engine.efficiency", "ratio"),
    ("sched.cpu_busy_frac", "ratio"),
    ("sched.accel_busy_frac", "ratio"),
    ("sched.tail_idle_frac", "ratio"),
    ("sched.accel_cell_frac", "ratio"),
    ("sched.accel_chunks", "count"),
    ("serve.ack_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.region_size", "count"),
    ("coord.shard_ms", "ms"),
    ("coord.overhead_ms", "ms"),
    ("coord.merge_us", "us"),
    ("coord.requeues", "count"),
    ("coord.net_retries", "count"),
    ("trace.overhead_frac", "ratio"),
];
