//! The pulse engine's promise that no sub-step of the ideal line stage
//! allocates (`rram_crossbar::engine` module docs), checked with a counting
//! global allocator: after a warm-up that sizes every reused buffer, 50
//! pulse + idle pairs on a 5×5 engine with shared parameters and on a 16×16
//! engine with a Monte Carlo column table must not touch the heap once.
//!
//! Only allocations made on the thread that runs the engine are counted, so
//! the test harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use neurohammer_repro::crossbar::{
    CellAddress, CrossbarArray, CrosstalkHub, EngineConfig, HammerBackend, PulseEngine,
};
use neurohammer_repro::jart::{DeviceParams, DigitalState, ParamColumns, ParamField};
use neurohammer_repro::units::{Seconds, Volts};

/// The system allocator, counting the allocations of threads that opted in.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. Const-initialised and
    /// without a destructor, so reading it never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// neither the pointers nor the layouts, and it does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's guarantees are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|counted| counted.set(true));
    f();
    COUNTED.with(|counted| counted.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// `pairs` pulses on the aggressor, each followed by an idle gap.
fn hammer(engine: &mut PulseEngine, aggressor: CellAddress, pairs: usize) {
    for _ in 0..pairs {
        engine.apply_pulse(aggressor, Volts(1.05), Seconds(50e-9));
        engine.idle(Seconds(50e-9));
    }
}

#[test]
fn pulses_and_idles_on_the_ideal_stage_do_not_allocate() {
    let nominal = DeviceParams::default();
    let shared =
        PulseEngine::with_uniform_coupling(5, 5, nominal.clone(), 0.15, EngineConfig::default());

    let cells = 16 * 16;
    let mut table = ParamColumns::uniform(nominal.clone(), cells);
    for (field, step) in [
        (ParamField::FilamentRadius, 0.004),
        (ParamField::LDisc, 0.003),
    ] {
        let values = (0..cells)
            .map(|i| field.get(&nominal) * (0.9 + step * (i % 50) as f64))
            .collect();
        table.set_column(field, values);
    }
    let mut array = CrossbarArray::new(16, 16, nominal);
    array.set_param_columns(table);
    let hub = CrosstalkHub::two_ring(16, 16, 0.15, Seconds(30e-9));
    let columns = PulseEngine::new(array, hub, EngineConfig::default());

    for (name, mut engine, aggressor) in [
        ("5x5 shared", shared, CellAddress::new(2, 2)),
        ("16x16 column table", columns, CellAddress::new(7, 9)),
    ] {
        engine.force_state(aggressor, DigitalState::Lrs);
        hammer(&mut engine, aggressor, 10);
        let warmed = engine.elapsed();
        let allocations = allocations_during(|| hammer(&mut engine, aggressor, 50));
        assert_eq!(allocations, 0, "{name}: 50 pulse + idle pairs allocated");
        // The counted pairs did run.
        assert!(engine.elapsed().0 > warmed.0, "{name}");
    }
}
