//! Worker daemon for the networked workloads: the stock operators plus
//! the benchmark's latency sinks, registered before handing off to the
//! engine's daemon loop.

use std::sync::Arc;

use albic::engine::transport::{worker_main, OperatorRegistry};
use perfbench::sink::LatencySink;

fn main() {
    let mut registry = OperatorRegistry::with_builtins();
    registry.register(Arc::new(LatencySink::plain()));
    registry.register(Arc::new(LatencySink::padded()));
    std::process::exit(worker_main(registry));
}
