//! Heap allocations on the in-process data plane, counted exactly.
//!
//! A counting global allocator wraps `System`, so every `alloc` and
//! `realloc` on every thread of this test binary — producer, workers,
//! coordinator — is one count. A per-chunk allocation moves the count by
//! over a hundred per Ki tuples, thread scheduling by a few, whereas wall
//! clock on a shared machine swings by more than the effects it would
//! measure. The file holds exactly one test, so no other test's threads
//! allocate while it measures.
//!
//! Ingest recycles its chunk buffers: a worker hands each consumed chunk
//! back to its inbox's spare list, and the injector packs its next chunk
//! for that inbox into it. A warmed-up job should therefore ingest with
//! no allocation per chunk. The injector keeps its staging and bucket
//! vectors between calls on a thread, so nothing is paid per `inject`
//! call either; what remains is per channel block and per queue peak.
//!
//! Spare lists fill lazily: an inbox holds no more spares than chunks it
//! once had in flight. So a queue that peaks deeper than it ever did before
//! allocates the extra chunks once — with the default capacity of 256
//! chunks, up to 6 allocations per Ki on top of the steady state, however
//! the threads happen to be scheduled. The job here runs at a capacity of
//! 16 chunks, which bounds that one-time term below 1 per Ki, so the
//! count measures what ingest pays per chunk.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use albic::engine::operator::{Counting, Identity};
use albic::engine::tuple::{Tuple, Value};
use albic::engine::RuntimeConfig;
use albic::job::{Job, Policy};

/// `System`, counting every allocation and reallocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic and allocates nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Tuples per `inject` call, as in the `ingest` benchmark's closed loop.
const CALL: usize = 4096;
/// Tuples injected while counting.
const MEASURED: usize = 256 * 1024;
/// Tuples injected before counting.
const WARMUP: usize = 64 * 1024;
/// Data chunks queued per inbox (see the module docs).
const CAPACITY: usize = 16;
/// The bound on allocations per 1024 injected tuples. A warm job pays
/// about 0.7 (0.61–0.75 in debug and release builds on two CPUs): a
/// block per 31 messages in the channel, and a few fresh chunks where a
/// queue peaks deeper. How the threads are scheduled adds more —
/// buffers handed back while a spare list is full are freed, and
/// reallocated later: up to 3.7 in release builds on two CPUs, and
/// 3.8–4.4 in a debug build pinned to one CPU. An engine that allocates
/// every chunk buffer afresh pays over 100.
const MAX_PER_KI: f64 = 8.0;

/// A pool of uniform keys (xorshift64), cycled through by the calls.
fn keys() -> Vec<u64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..1 << 16)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

#[test]
fn a_warm_in_process_job_ingests_without_allocating_per_chunk() {
    let mut job = Job::builder()
        .source("src", 16, Identity)
        .operator("sink", 16, Counting)
        .edge("src", "sink")
        .nodes(2)
        .policy(Policy::noop())
        .runtime_config(RuntimeConfig {
            channel_capacity: CAPACITY,
            ..RuntimeConfig::default()
        })
        .build_threaded()
        .expect("build the job");
    let injector = job.injector("src");
    let keys = keys();
    let mut next = 0usize;
    let mut inject = |tuples: usize| {
        for _ in 0..tuples / CALL {
            injector.inject((0..CALL).map(|i| {
                let key = keys[(next + i) % keys.len()];
                Tuple::raw(key, Value::Int(i as i64), 0)
            }));
            next += CALL;
        }
    };
    inject(WARMUP);
    job.settle();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    inject(MEASURED);
    job.settle();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let per_ki = allocations as f64 / (MEASURED / 1024) as f64;
    println!("{allocations} allocations for {MEASURED} tuples: {per_ki:.2} per Ki");
    assert!(
        per_ki < MAX_PER_KI,
        "{allocations} allocations for {MEASURED} tuples: {per_ki:.2} per Ki, bound {MAX_PER_KI}"
    );
    assert_eq!(injector.dropped_so_far(), 0);
    job.shutdown();
}
