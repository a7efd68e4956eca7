//! Tests of the benchmark's own helpers: the tail-percentile rule, the
//! scaled loop latency, span self time, and seeded input generation.

use perfbench::inputs::{Inputs, Workload};
use perfbench::run::{Done, LoopFigures};
use perfbench::spans::{self_time_by_name, self_times_us, trace_event_json, Recorder, Span};
use perfbench::stats::{beyond, percentile, tail_percentile, Latency, TAIL_MIN_BEYOND};

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    for n in 1..400 {
        let pct = tail_percentile(n);
        if n < 20 {
            assert_eq!(
                pct, 50,
                "n={n}: no tail percentile qualifies, median stands in"
            );
            continue;
        }
        assert!(beyond(n, pct) >= TAIL_MIN_BEYOND, "n={n} p{pct}");
        assert!(
            pct == 90 || beyond(n, pct + 5) < TAIL_MIN_BEYOND,
            "n={n}: p{} would also keep ten beyond, p{pct} is not the highest",
            pct + 5
        );
    }
    assert_eq!(tail_percentile(100), 90);
    assert_eq!(tail_percentile(30), 65);
    assert_eq!(tail_percentile(20), 50);
}

#[test]
fn percentiles_use_nearest_rank() {
    let s: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&s, 90), 90.0);
    assert_eq!(percentile(&s, 50), 50.0);
    assert_eq!(percentile(&s, 100), 100.0);
    assert_eq!(percentile(&[7.0], 90), 7.0);
    let l = Latency::of(&s);
    assert_eq!((l.n, l.p50, l.tail_pct, l.tail), (100, 50.5, 90, 90.0));
    // Too few samples: the tail is the median, not a lower rank.
    let l = Latency::of(&[4.0, 1.0, 3.0, 2.0]);
    assert_eq!((l.p50, l.tail_pct, l.tail), (2.5, 50, 2.5));
}

fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_us: start,
        end_us: end,
        parent,
        query: None,
        thread: 1,
    }
}

fn done(query: usize, latency_s: f64, cells: u64) -> Done {
    Done {
        query,
        latency_s,
        cells,
        lines: Vec::new(),
        error: None,
        submit: None,
        region: 0,
        sched: None,
        coord: None,
        mode: 0,
    }
}

#[test]
fn loop_latency_scales_each_query_to_the_basis() {
    // Three query sizes at one rate of 1 Gcell/s, and one slow outlier.
    let done = [
        done(0, 1.0, 1_000_000_000),
        done(1, 1.5, 1_500_000_000),
        done(2, 2.0, 2_000_000_000),
        done(1, 3.0, 1_500_000_000),
    ];
    let raw = LoopFigures::of(&done, 7.5, None);
    assert_eq!(raw.latency.p50, 1750.0);
    assert!((raw.gcups - 0.8).abs() < 1e-12);
    let scaled = LoopFigures::of(&done, 7.5, Some(1_500_000_000));
    assert_eq!(scaled.latency.n, 4);
    assert_eq!(scaled.latency.p50, 1500.0, "every query says 1.5 s but one");
    assert_eq!(scaled.gcups, raw.gcups, "scaling touches latency only");
}
#[test]
fn self_time_of_nested_spans() {
    let spans = vec![
        span("query", 0.0, 100.0, None),
        span("coord", 10.0, 30.0, Some(0)),
        span("merge", 15.0, 20.0, Some(1)),
    ];
    assert_eq!(self_times_us(&spans), vec![80.0, 15.0, 5.0]);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = vec![
        span("query", 0.0, 100.0, None),
        span("shard", 10.0, 50.0, Some(0)),
        span("shard", 30.0, 70.0, Some(0)),
        // Sticks out of the parent: only 90..100 is covered.
        span("late", 90.0, 120.0, Some(0)),
        // Inside another child's interval, covered already.
        span("shard", 40.0, 45.0, Some(0)),
    ];
    let t = self_times_us(&spans);
    assert_eq!(t[0], 100.0 - 60.0 - 10.0);
    let by_name = self_time_by_name(&spans);
    assert_eq!(by_name["shard"], 40.0 + 40.0 + 5.0);
    assert_eq!(by_name["late"], 30.0);
}

#[test]
fn recorder_keeps_parents_and_writes_trace_events() {
    let rec = Recorder::new(true);
    let out = rec.wrap("query", None, Some(3), |root| {
        rec.wrap("engine", root, Some(3), |_| 42)
    });
    assert_eq!(out, 42);
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
    let json = trace_event_json(&spans);
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    assert!(json.contains("\"parent\":0,\"query\":3"));

    let off = Recorder::new(false);
    assert_eq!(off.wrap("query", None, None, |id| id), None);
    assert!(off.spans().is_empty());
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for w in [Workload::ServeShort, Workload::ShardFanout] {
        let a = Inputs::generate(w, 11, 1);
        let b = Inputs::generate(w, 11, 1);
        assert_eq!(a, b, "{}", w.name());
        assert_eq!(
            a.images,
            b.images,
            "{}: images must match byte for byte",
            w.name()
        );
        assert_eq!(a.images.len(), w.shards().max(1));
        let c = Inputs::generate(w, 12, 1);
        assert_ne!(
            a.images,
            c.images,
            "{}: another seed, another database",
            w.name()
        );
        assert_ne!(
            a.queries,
            c.queries,
            "{}: another seed, other queries",
            w.name()
        );
    }
}
