//! Once each direction has been planned, `AsipEngine::execute_into`
//! does no heap work: the program, machine, pre-rotation table and
//! staging buffers are all reused. A counting global allocator checks
//! that claim on the calling thread.

use afft_asip::engine::AsipEngine;
use afft_core::{Direction, FftEngine};
use afft_num::{Complex, C64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts every allocation made
/// by the current thread.
struct Counting;

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn signal(n: usize, seed: usize) -> Vec<C64> {
    (0..n)
        .map(|m| {
            let t = (m * (seed + 3) % 97) as f64;
            Complex::new((t * 0.37).sin(), (t * 0.11).cos())
        })
        .collect()
}

#[test]
fn execute_into_allocates_nothing_after_one_call_per_direction() {
    for n in [64usize, 1024, 8192] {
        let mut engine = AsipEngine::new(n).expect("plan");
        let inputs: Vec<Vec<C64>> = (0..3).map(|seed| signal(n, seed)).collect();
        let mut output = vec![C64::zero(); n];
        for dir in [Direction::Forward, Direction::Inverse] {
            engine.execute_into(&inputs[0], &mut output, dir).expect("warm-up");
        }

        let before = allocations();
        for (i, input) in inputs.iter().enumerate() {
            for dir in [Direction::Inverse, Direction::Forward] {
                engine.execute_into(input, &mut output, dir).expect("run");
            }
            assert!(engine.last_stats().is_some(), "n={n}, input {i}");
        }
        assert_eq!(allocations() - before, 0, "n={n}: execute_into allocated");
    }
}
