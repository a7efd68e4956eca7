//! Micro-benchmarks of the scheduling layer: discrete-event simulator
//! throughput (it must handle ~677k-task pools for the pooled figures),
//! real-executor dispatch overhead per policy, and the dual-pool
//! scheduler's queue + metrics overhead. Std-only harness, see
//! `sw_bench::micro`.

use sw_sched::{
    run_dual_pool_durable, run_parallel, simulate, DualPoolConfig, DurableControl, ExecutorConfig,
    FaultInjector, MetricsSink, Policy,
};
use sw_trace::Tracer;

fn main() {
    sw_bench::micro::section("desim (tasks/s as elem/s)");
    for &n in &[1_000usize, 100_000] {
        let costs: Vec<f64> = (0..n)
            .map(|i| ((i * 7919) % 97 + 1) as f64 * 1e-4)
            .collect();
        for policy in [Policy::Static, Policy::dynamic(), Policy::guided()] {
            sw_bench::micro::run(&format!("{}/{n}", policy.label()), n as u64, || {
                simulate(&costs, 240, policy)
            });
        }
    }

    sw_bench::micro::section("executor dispatch (tasks/s)");
    let n = 10_000usize;
    for policy in [
        Policy::Static,
        Policy::Dynamic { chunk: 16 },
        Policy::guided(),
    ] {
        let cfg = ExecutorConfig { workers: 2, policy };
        sw_bench::micro::run(&format!("dispatch/{}", policy.label()), n as u64, || {
            run_parallel(n, cfg, |i| i as u64).iter().sum::<u64>()
        });
    }

    sw_bench::micro::section("dual-pool dispatch (tasks/s)");
    for (cpu_w, accel_w) in [(1usize, 1usize), (2, 2), (4, 4)] {
        let cfg = DualPoolConfig::new(cpu_w, accel_w);
        sw_bench::micro::run(&format!("dual_pool/{cpu_w}+{accel_w}"), n as u64, || {
            let sink = MetricsSink::new();
            run_dual_pool_durable(
                n,
                cfg,
                &FaultInjector::none(),
                DurableControl::none(),
                |_| 1,
                |_d, i| i as u64,
                &sink,
                &Tracer::disabled(),
            )
            .try_into_results()
            .expect("clean run")
            .iter()
            .sum::<u64>()
        });
    }

    // The coordinator-side fabric costs: seeded fault-plan generation
    // (every drilled search pays it once) and the k-way merge with a
    // replica-substituted shard column — the exact path the failover
    // drills exercise, so a regression here slows every net-fault CI
    // job.
    sw_bench::micro::section("shard fabric (plans/s, merges/s)");
    sw_bench::micro::run("net_fault_plan/seeded-16", 1, || {
        sw_sched::NetFaultPlan::seeded(42, 16, 16).specs.len()
    });
    let shard_col = |shard: u64, salt: u64| -> Vec<sw_serve::client::HitLine> {
        (0..64u64)
            .map(|i| sw_serve::client::HitLine {
                rank: i + 1,
                // Duplicated scores force the (score, id) tie-break,
                // the merge's worst case.
                score: 500 - (i as i64 / 4),
                id: shard * 1_000 + (i * 7919 + salt) % 997,
                header: format!("sp|B{shard}x{i}|bench"),
            })
            .collect()
    };
    for n_shards in [2u64, 8] {
        sw_bench::micro::run(&format!("merge_top_k/{n_shards}-shards"), n_shards, || {
            // Shard 0's column comes from "the replica" (salt differs):
            // same shape, different ids — the merge must stay cheap
            // whichever replica answered.
            let cols: Vec<Vec<sw_serve::client::HitLine>> = (0..n_shards)
                .map(|s| shard_col(s, if s == 0 { 13 } else { 0 }))
                .collect();
            sw_serve::coord::merge_hits(cols, 32).len()
        });
    }
}
