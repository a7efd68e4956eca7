//! perfbench command line:
//!
//! ```text
//! perfbench --workload <scan-long|serve-short|shard-fanout> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints `#`-prefixed report lines, then one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`.

use perfbench::fleet::clean_sockets;
use perfbench::inputs::Workload;
use perfbench::ladder::{self, LAYER_METRICS};
use perfbench::record::{peak_rss_mb, single_malloc_arena, RunRecord};
use perfbench::run::{Ctx, Instance, LoopFigures, SETUP_REPS};
use perfbench::spans::{self, Recorder};
use perfbench::stats::median;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <scan-long|serve-short|shard-fanout> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where traced runs write their span file.
const TRACE_DIR: &str = ".perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// (name, value, unit) triples in report order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn stop(inst: Instance) -> Result<(), String> {
    match inst {
        Instance::Daemons(mut fleet) => fleet.stop(),
        Instance::InProcess(_) => Ok(()),
    }
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    let record = RunRecord::capture(w.name(), args.seed, args.seconds, args.trace, threads);
    println!("# run-record {}", record.json());

    let ctx = Ctx::new(w, args.seed, args.seconds, threads);
    let rec = Arc::new(Recorder::new(args.trace));
    let untraced = Recorder::new(false);
    // The first set-up starts the instance the loop runs on. The other
    // set-ups and the output checks run after the peak RSS is read, so
    // that it covers one set-up and the loop, as one daemon's life would.
    let (inst, first_setup) = ctx.setup(&rec)?;
    // A traced run sends each query twice, spans off and on.
    let recs: Vec<&Recorder> = if args.trace {
        vec![&untraced, &rec]
    } else {
        vec![&untraced]
    };
    let (done, wall) = ctx.closed_loop(&inst, &recs, Duration::from_secs(args.seconds));
    let rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    if !done.iter().any(|d| d.mode == recs.len() - 1) {
        return Err("no query completed".into());
    }
    let layers = if args.trace {
        // The overhead compares the two modes' cells per second of
        // query latency.
        let rate = |mode: usize| {
            let (cells, secs) = done
                .iter()
                .filter(|d| d.mode == mode)
                .fold((0u64, 0.0), |(c, s), d| (c + d.cells, s + d.latency_s));
            cells as f64 / secs / 1e9
        };
        let (g_off, g_on) = (rate(0), rate(1));
        let overhead = 1.0 - g_on / g_off;
        println!(
            "# trace overhead: {g_on:.4} GCUPS per query traced vs {g_off:.4} untraced, \
             overhead_frac {overhead:.4}"
        );
        let on: Vec<_> = done.iter().filter(|d| d.mode == 1).cloned().collect();
        Some(ladder::measure(&ctx, &inst, &on, overhead, &rec)?)
    } else {
        None
    };
    stop(inst)?;
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPS {
        let (inst, secs) = ctx.setup(&rec)?;
        setups.push(secs);
        stop(inst)?;
    }
    let setup_s = median(&setups);
    println!("# setup: {SETUP_REPS} set-ups, median {setup_s:.4} s, each {setups:.4?}");
    ctx.verify(&done);

    let metrics = match layers {
        None => {
            let basis = ctx.latency_basis();
            let f = LoopFigures::of(&done, wall, basis);
            let scaled = basis.map_or(String::new(), |c| {
                format!(" scaled to {:.2} Gcells", c as f64 / 1e9)
            });
            println!(
                "# loop: {} clients, {} queries in {wall:.3} s, {:.4} GCUPS; latency{scaled} \
                 n={} p50 {:.2} ms, p{} {:.2} ms (reported as latency_p90_ms)",
                w.clients(),
                done.len(),
                f.gcups,
                f.latency.n,
                f.latency.p50,
                f.latency.tail_pct,
                f.latency.tail
            );
            if done.len() <= 64 {
                let each: Vec<String> = done
                    .iter()
                    .map(|d| format!("{}:{:.0}", d.query, d.latency_s * 1e3))
                    .collect();
                println!("# latencies (query:ms): {}", each.join(" "));
            }
            vec![
                ("setup_s", setup_s, "s"),
                ("gcups", f.gcups, "GCUPS"),
                ("latency_p50_ms", f.latency.p50, "ms"),
                ("latency_p90_ms", f.latency.tail, "ms"),
                ("peak_rss_mb", rss, "MB"),
            ]
        }
        Some(mut layers) => {
            let all = rec.spans();
            ladder::setup_layers(&all, &mut layers);
            let by_name = spans::self_time_by_name(&all);
            let total: f64 = by_name.values().sum();
            for (name, us) in &by_name {
                println!(
                    "# self-time {name:<24} {:>10.2} ms  {:>5.1}%",
                    us / 1e3,
                    100.0 * us / total
                );
            }
            std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
            let path = format!("{TRACE_DIR}/{}-seed{}.trace.json", w.name(), args.seed);
            std::fs::write(&path, spans::trace_event_json(&all))
                .map_err(|e| format!("{path}: {e}"))?;
            println!("# spans: {} written to {path}", all.len());
            LAYER_METRICS
                .iter()
                .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(f64::NAN), unit))
                .collect()
        }
    };
    let (attempted, failed) = ctx.tally.counts();
    for note in ctx.tally.notes() {
        println!("# FAILED: {note}");
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        println!("# FAILED: a metric is not a finite number");
    }
    Ok((failed == 0 && finite, attempted, failed, metrics))
}

fn main() {
    let arenas = if single_malloc_arena() {
        "one"
    } else {
        "allocator default"
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("# malloc arenas: {arenas}");
    let result = run(&args);
    clean_sockets();
    match result {
        Ok((correct, attempted, failed, metrics)) => {
            let body: Vec<String> = metrics
                .iter()
                .map(|(name, v, unit)| {
                    let v = if v.is_finite() { *v } else { 0.0 };
                    format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
                body.join(",")
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
