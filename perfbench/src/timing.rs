//! A forwarding [`HammerBackend`] that times every call into the engine.
//!
//! The campaign executor builds its backends internally, so the benchmark
//! cannot wrap them. The traced run instead replays each point through the
//! same public per-point calls the executor makes and hands the attack
//! drivers a [`TimedBackend`] around the engine: every trait method —
//! required and provided alike — is forwarded to the inner engine and
//! counted and timed per [`Method`].

use std::cell::Cell;
use std::time::Instant;

use rram_crossbar::{CellAddress, CrosstalkHub, HammerBackend, ThermalReadout};
use rram_jart::DigitalState;
use rram_units::{Kelvin, Seconds, Volts};

/// One method of [`HammerBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `label`
    Label,
    /// `rows`
    Rows,
    /// `cols`
    Cols,
    /// `apply_pulse`
    ApplyPulse,
    /// `idle`
    Idle,
    /// `read`
    Read,
    /// `normalized_state`
    NormalizedState,
    /// `force_state`
    ForceState,
    /// `force_normalized_state`
    ForceNormalizedState,
    /// `thermal_readout`
    ThermalReadout,
    /// `hub`
    Hub,
    /// `hub_mut`
    HubMut,
    /// `elapsed`
    Elapsed,
    /// `reset`
    Reset,
    /// `peak_crosstalk`
    PeakCrosstalk,
    /// `worker_threads`
    WorkerThreads,
    /// `simd_isa`
    SimdIsa,
    /// `read_all`
    ReadAll,
    /// `changed_cells`
    ChangedCells,
}

/// Number of [`Method`] variants.
pub const METHODS: usize = 19;

impl Method {
    /// Every method, in declaration order.
    pub const ALL: [Method; METHODS] = [
        Method::Label,
        Method::Rows,
        Method::Cols,
        Method::ApplyPulse,
        Method::Idle,
        Method::Read,
        Method::NormalizedState,
        Method::ForceState,
        Method::ForceNormalizedState,
        Method::ThermalReadout,
        Method::Hub,
        Method::HubMut,
        Method::Elapsed,
        Method::Reset,
        Method::PeakCrosstalk,
        Method::WorkerThreads,
        Method::SimdIsa,
        Method::ReadAll,
        Method::ChangedCells,
    ];
}

/// Call counts and summed call durations per [`Method`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    counts: [u64; METHODS],
    nanos: [u64; METHODS],
}

impl CallTotals {
    /// Calls of `method`.
    pub fn count(&self, method: Method) -> u64 {
        self.counts[method as usize]
    }

    /// Nanoseconds spent inside `method`.
    pub fn nanos(&self, method: Method) -> u64 {
        self.nanos[method as usize]
    }

    /// Nanoseconds spent inside any method: the backend's share of a
    /// point.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Adds `other`'s calls to these.
    pub fn add(&mut self, other: &CallTotals) {
        for i in 0..METHODS {
            self.counts[i] += other.counts[i];
            self.nanos[i] += other.nanos[i];
        }
    }
}

/// A [`HammerBackend`] forwarding every call to `inner`, counting and
/// timing it.
pub struct TimedBackend<'a> {
    inner: &'a mut dyn HammerBackend,
    counts: [Cell<u64>; METHODS],
    nanos: [Cell<u64>; METHODS],
}

impl<'a> TimedBackend<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn HammerBackend) -> TimedBackend<'a> {
        TimedBackend {
            inner,
            counts: Default::default(),
            nanos: Default::default(),
        }
    }

    /// The calls made so far.
    pub fn totals(&self) -> CallTotals {
        CallTotals {
            counts: self.counts.each_ref().map(Cell::get),
            nanos: self.nanos.each_ref().map(Cell::get),
        }
    }
}

/// Records one call of `method` that started at `started`.
fn note(
    counts: &[Cell<u64>; METHODS],
    nanos: &[Cell<u64>; METHODS],
    method: Method,
    started: Instant,
) {
    let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let i = method as usize;
    counts[i].set(counts[i].get() + 1);
    nanos[i].set(nanos[i].get() + elapsed);
}

/// Forwards `$call` on the inner engine, timing it as `$method`.
macro_rules! forward {
    ($self:ident, $method:expr, |$inner:ident| $call:expr) => {{
        let started = Instant::now();
        let $inner = &$self.inner;
        let value = $call;
        note(&$self.counts, &$self.nanos, $method, started);
        value
    }};
    (mut $self:ident, $method:expr, |$inner:ident| $call:expr) => {{
        let started = Instant::now();
        let $inner = &mut $self.inner;
        let value = $call;
        note(&$self.counts, &$self.nanos, $method, started);
        value
    }};
}

impl HammerBackend for TimedBackend<'_> {
    fn label(&self) -> &'static str {
        forward!(self, Method::Label, |e| e.label())
    }

    fn rows(&self) -> usize {
        forward!(self, Method::Rows, |e| e.rows())
    }

    fn cols(&self) -> usize {
        forward!(self, Method::Cols, |e| e.cols())
    }

    fn apply_pulse(&mut self, selected: CellAddress, amplitude: Volts, length: Seconds) {
        forward!(mut self, Method::ApplyPulse, |e| e.apply_pulse(selected, amplitude, length))
    }

    fn idle(&mut self, duration: Seconds) {
        forward!(mut self, Method::Idle, |e| e.idle(duration))
    }

    fn read(&self, address: CellAddress) -> DigitalState {
        forward!(self, Method::Read, |e| e.read(address))
    }

    fn normalized_state(&self, address: CellAddress) -> f64 {
        forward!(self, Method::NormalizedState, |e| e
            .normalized_state(address))
    }

    fn force_state(&mut self, address: CellAddress, state: DigitalState) {
        forward!(mut self, Method::ForceState, |e| e.force_state(address, state))
    }

    fn force_normalized_state(&mut self, address: CellAddress, normalized: f64) {
        forward!(mut self, Method::ForceNormalizedState, |e| e
            .force_normalized_state(address, normalized))
    }

    fn thermal_readout(&self, address: CellAddress) -> ThermalReadout {
        forward!(self, Method::ThermalReadout, |e| e.thermal_readout(address))
    }

    fn hub(&self) -> &CrosstalkHub {
        let started = Instant::now();
        let hub = self.inner.hub();
        note(&self.counts, &self.nanos, Method::Hub, started);
        hub
    }

    fn hub_mut(&mut self) -> &mut CrosstalkHub {
        let started = Instant::now();
        let hub = self.inner.hub_mut();
        note(&self.counts, &self.nanos, Method::HubMut, started);
        hub
    }

    fn elapsed(&self) -> Seconds {
        forward!(self, Method::Elapsed, |e| e.elapsed())
    }

    fn reset(&mut self) {
        forward!(mut self, Method::Reset, |e| e.reset())
    }

    fn peak_crosstalk(&self) -> Kelvin {
        forward!(self, Method::PeakCrosstalk, |e| e.peak_crosstalk())
    }

    fn worker_threads(&self) -> usize {
        forward!(self, Method::WorkerThreads, |e| e.worker_threads())
    }

    fn simd_isa(&self) -> &'static str {
        forward!(self, Method::SimdIsa, |e| e.simd_isa())
    }

    fn read_all(&self) -> Vec<DigitalState> {
        forward!(self, Method::ReadAll, |e| e.read_all())
    }

    fn changed_cells(&self, reference: &[DigitalState]) -> Vec<CellAddress> {
        forward!(self, Method::ChangedCells, |e| e.changed_cells(reference))
    }
}
