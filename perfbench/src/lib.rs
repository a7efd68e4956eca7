//! perfbench: the swhetero benchmark. One command runs one workload
//! (`scan-long`, `serve-short` or `shard-fanout`) for a fixed time,
//! checks every output against an in-process reference, and prints the
//! end-to-end metrics — or, with tracing on, the per-layer metrics and
//! a span file Perfetto opens.

pub mod fleet;
pub mod inputs;
pub mod ladder;
pub mod record;
pub mod run;
pub mod spans;
pub mod stats;
