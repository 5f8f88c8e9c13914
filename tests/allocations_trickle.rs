//! Heap allocations of a trickle source, counted exactly: 4 tuples per
//! `inject` call, the shape of a paced source that hands over what has
//! arrived.
//!
//! Its own binary, for the reason `tests/allocations.rs` holds one test:
//! the counting allocator is process-global, so any other test's threads
//! would be counted too. The job, the warm-up and the count are those of
//! `allocations.rs`, at 4 instead of 4 096 tuples per call.
//!
//! At this call size what `inject` pays per call dominates: every call
//! packs and sends one short chunk, and the workers merge the chunks
//! queued behind each other. Before the injector kept its bucket and
//! staging vectors between calls on a thread, each call allocated both:
//! 576–578 allocations per Ki tuples in a debug build on two CPUs, and
//! 656–660 pinned to one. Reusing them leaves 50–67 per Ki on two CPUs
//! and 108 pinned to one: a channel block per 31 messages, with one
//! message per call, and chunk buffers a call finds no spare for, which
//! depends on how the threads are scheduled.
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

/// Tuples per `inject` call.
const CALL: usize = 4;
/// Tuples injected while counting.
const MEASURED: usize = 64 * 1024;
/// Tuples injected before counting.
const WARMUP: usize = 16 * 1024;
/// Data chunks queued per inbox, as in `allocations.rs`.
const CAPACITY: usize = 16;
/// The bound on allocations per 1024 injected tuples: above the 50–108
/// measured with reused vectors, well below the 576–660 of allocating
/// them per call (see the module docs).
const MAX_PER_KI: f64 = 200.0;

#[test]
fn a_warm_trickle_source_ingests_without_allocating_per_call() {
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
    let mut next = 0u64;
    let mut inject = |tuples: usize| {
        for _ in 0..tuples / CALL {
            injector.inject((0..CALL as u64).map(|i| {
                let key = (next + i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                Tuple::raw(key, Value::Int(i as i64), 0)
            }));
            next += CALL as u64;
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
