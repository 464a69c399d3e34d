//! Counting-allocator probe: the fabric's steady-state stepping path
//! performs **zero** heap allocations (ISSUE 5 acceptance criterion).
//!
//! A thread-local counter wrapped around the system allocator counts
//! every `alloc`/`realloc`/`alloc_zeroed` on this thread. After a
//! warm-up that grows the scratch buffers to their high-water mark,
//! stepping — on cache hits, on forced recomputes, and through rest
//! windows — must not touch the heap at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netsim::fabric::{Fabric, FlowSpec};
use netsim::shaper::{Shaper, StaticShaper, TokenBucket};

struct CountingAlloc;

thread_local! {
    // const-init so reading the counter never allocates lazily.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // try_with: the allocator may be called during TLS teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Run `f` inside its own counter epoch and return the number of
/// allocations it performed. Each measured section gets an independent
/// epoch — a snapshot at entry and a delta at exit — so probing one
/// stepping path can never hide (or get blamed for) allocations from
/// another path's warm-up or measurement.
fn measured<F: FnOnce()>(f: F) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

#[test]
fn steady_state_stepping_is_allocation_free() {
    let mut fabric: Fabric<Box<dyn Shaper + Send>> = Fabric::new();
    for v in 0..8 {
        if v % 2 == 0 {
            fabric.add_node(Box::new(TokenBucket::sigma_rho(5e12, 1e9, 10e9)), 10e9);
        } else {
            fabric.add_node(Box::new(StaticShaper::new(8e9)), 10e9);
        }
    }
    // Long-lived flows: no completions, so the flow set is stable and
    // the scratch buffers reach their high-water mark during warm-up.
    for s in 0..8usize {
        fabric.start_flow(FlowSpec::new(s, (s + 3) % 8, 1e18));
    }
    for _ in 0..50 {
        fabric.step(0.1);
    }
    fabric.reset_perf();

    // 1. Cache-hit steady state: zero allocations.
    let hit_allocs = measured(|| {
        for _ in 0..1_000 {
            let completed = fabric.step(0.1);
            assert!(completed.is_empty(), "steady flows must not complete");
        }
    });
    let perf = fabric.perf();
    assert!(perf.rate_cache_hits >= 990, "expected cache hits, got {perf:?}");
    assert_eq!(hit_allocs, 0, "cache-hit steps allocated {hit_allocs} times");

    // 2. Forced recomputation every step (alternating core capacity
    // flips the input signature without changing the flow set): the
    // water-filling rerun must reuse the scratch buffers, still zero.
    // One warm-up round first so both signature states have been seen.
    for i in 0..4 {
        fabric.set_core_capacity(if i % 2 == 0 { 20e9 } else { 30e9 });
        fabric.step(0.1);
    }
    fabric.reset_perf();
    let recompute_allocs = measured(|| {
        for i in 0..1_000 {
            fabric.set_core_capacity(if i % 2 == 0 { 20e9 } else { 30e9 });
            fabric.step(0.1);
        }
    });
    let perf = fabric.perf();
    assert_eq!(perf.rate_recomputes, 1_000, "every step must recompute: {perf:?}");
    assert_eq!(
        recompute_allocs, 0,
        "recompute steps allocated {recompute_allocs} times"
    );
}

#[test]
fn resting_is_allocation_free() {
    let mut fabric = Fabric::new();
    for _ in 0..8 {
        fabric.add_node(TokenBucket::sigma_rho(5e12, 1e9, 10e9), 10e9);
    }
    // Warm-up: one rest call settles any lazy shaper state.
    fabric.rest(1.0, 0.1);
    let rest_allocs = measured(|| {
        fabric.rest(600.0, 0.1);
        for _ in 0..100 {
            let completed = fabric.step(0.1);
            assert!(completed.is_empty());
        }
    });
    assert_eq!(rest_allocs, 0, "rest allocated {rest_allocs} times");
}

/// The event engine's steady-state jumps must be allocation-free too:
/// the window kernel works entirely in the pre-grown struct-of-arrays
/// mirrors (`ev_src`/`ev_rem`/wants/runs) and the caller's completion
/// buffer. Per-step stepping and event jumping are measured in
/// **independent counter epochs** on the *same* fabric — each is
/// warmed and judged on its own, so neither can mask the other.
#[test]
fn event_jump_steady_state_is_allocation_free() {
    let mut fabric: Fabric<Box<dyn Shaper + Send>> = Fabric::new();
    for v in 0..8 {
        if v % 2 == 0 {
            fabric.add_node(Box::new(TokenBucket::sigma_rho(5e12, 1e9, 10e9)), 10e9);
        } else {
            fabric.add_node(Box::new(StaticShaper::new(8e9)), 10e9);
        }
    }
    // Long-lived flows: no completions, a stable flow set, maximal
    // event windows.
    for s in 0..8usize {
        fabric.start_flow(FlowSpec::new(s, (s + 3) % 8, 1e18));
    }
    let mut done = Vec::with_capacity(16);

    // Epoch 1: per-step stepping. Warm inside the epoch, measure inside
    // the epoch.
    for _ in 0..200 {
        fabric.step(0.1);
    }
    let fast_allocs = measured(|| {
        for _ in 0..1000 {
            assert!(fabric.step(0.1).is_empty(), "steady flows must not complete");
        }
    });
    assert_eq!(fast_allocs, 0, "per-step stepping allocated {fast_allocs} times");

    // Epoch 2: event jumps on the same fabric. Its warm-up (growing the
    // struct-of-arrays mirrors to the high-water mark) happens inside
    // this epoch's warm-up phase, not under the per-step counter.
    for _ in 0..50 {
        fabric.advance(0.1, 64, &mut done);
    }
    fabric.reset_perf();
    let event_allocs = measured(|| {
        for _ in 0..250 {
            fabric.advance(0.1, 64, &mut done);
            assert!(done.is_empty(), "steady flows must not complete");
        }
    });
    let perf = fabric.perf();
    assert!(perf.event_jumps > 0, "event engine never jumped: {perf:?}");
    assert!(
        perf.event_steps > perf.steps / 2,
        "jumps covered too few steps: {perf:?}"
    );
    assert_eq!(
        event_allocs, 0,
        "event jumps allocated {event_allocs} times ({perf:?})"
    );
}
