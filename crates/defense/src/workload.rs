//! Benign write workloads: false-positive accounting for guard sweeps.
//!
//! A guard that stops NeuroHammer by firing on *every* write stream is
//! useless — the overhead side of the defence/overhead Pareto front must be
//! measured on traffic a legitimate application generates. This module
//! replays a deterministic, seeded stream of ordinary writes (uniformly
//! spread over the array, nominal write amplitude, relaxed duty cycle)
//! against a guard on any [`HammerBackend`], counting every intervention
//! the legitimate traffic paid for.

use serde::{Deserialize, Serialize};

use crate::guard::{Countermeasure, GuardAction};
use rram_crossbar::{CellAddress, HammerBackend};
use rram_jart::DigitalState;
use rram_units::{Kelvin, Seconds, Volts};

/// A deterministic benign write stream.
///
/// # Examples
///
/// Counting the false triggers of an aggressive write counter:
///
/// ```
/// use rram_crossbar::{EngineConfig, PulseEngine};
/// use rram_defense::{run_benign_workload, BenignWorkload, WriteCounterGuard};
/// use rram_jart::DeviceParams;
/// use rram_units::Seconds;
///
/// let mut engine = PulseEngine::with_uniform_coupling(
///     5, 5, DeviceParams::default(), 0.15, EngineConfig::default());
/// let mut guard = WriteCounterGuard::new(4, Seconds(1.0));
/// let workload = BenignWorkload { writes: 64, ..BenignWorkload::default() };
/// let false_triggers = run_benign_workload(&mut engine, &mut guard, &workload);
/// // A threshold of 4 writes/cell over 64 random writes on 25 cells fires.
/// assert!(false_triggers.count > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenignWorkload {
    /// Number of write pulses to replay.
    pub writes: u64,
    /// Write amplitude, V.
    pub amplitude: Volts,
    /// Write pulse length, s.
    pub pulse_length: Seconds,
    /// Idle gap between writes, s.
    pub gap: Seconds,
    /// Seed of the deterministic cell-selection stream.
    pub seed: u64,
}

impl Default for BenignWorkload {
    /// 256 writes at the paper's nominal SET voltage, 100 ns pulses with a
    /// symmetric gap.
    fn default() -> Self {
        BenignWorkload {
            writes: 256,
            amplitude: Volts(rram_units::V_SET),
            pulse_length: Seconds(100e-9),
            gap: Seconds(100e-9),
            seed: 0,
        }
    }
}

impl BenignWorkload {
    /// Nominal (guard-free) duration of the stream:
    /// `writes × (pulse_length + gap)`, s — the denominator of relative
    /// overhead.
    pub fn nominal_time(&self) -> Seconds {
        Seconds(self.writes as f64 * (self.pulse_length.0 + self.gap.0))
    }
}

/// A guard's interventions on one write stream, tallied as
/// [`Interventions::carry_out`] performs them. The attack loop and the
/// benign workload both keep one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Interventions {
    /// Refreshes plus throttles.
    pub count: u64,
    /// Number (1-based) of the write the guard first intervened on.
    pub first: Option<u64>,
    /// Neighbour-refresh events.
    pub refreshes: u64,
    /// Cells those refreshes rewrote.
    pub refreshed_cells: u64,
    /// Idle time the throttles inserted, s.
    pub throttle_time: Seconds,
}

impl Interventions {
    /// Carries out `action`, the guard's answer to write number `write`
    /// (1-based) of `cell`, on `engine`, and tallies it: a throttle idles
    /// the engine, a refresh rewrites the cell's HRS neighbours
    /// ([`apply_refresh`]).
    pub fn carry_out<B: HammerBackend + ?Sized>(
        &mut self,
        engine: &mut B,
        cell: CellAddress,
        write: u64,
        action: GuardAction,
    ) {
        match action {
            GuardAction::Allow => return,
            GuardAction::Throttle(pause) => {
                engine.idle(pause);
                self.throttle_time = Seconds(self.throttle_time.0 + pause.0);
            }
            GuardAction::RefreshNeighbors => {
                self.refreshes += 1;
                self.refreshed_cells += apply_refresh(engine, cell);
            }
        }
        self.count += 1;
        self.first.get_or_insert(write);
    }
}

/// One guard of a *guard family* — campaign points that differ only in
/// their guard — watching a write stream the family shares: the member's
/// position in the family, its guard, and what the guard has done on the
/// stream.
#[derive(Debug)]
pub struct Observer<'g> {
    /// Position of the member in its family.
    pub member: usize,
    /// The member's guard.
    pub guard: &'g mut dyn Countermeasure,
    /// The guard's interventions so far.
    pub interventions: Interventions,
}

impl<'g> Observer<'g> {
    /// Member `member`'s guard, before it has seen a write.
    pub fn new(member: usize, guard: &'g mut dyn Countermeasure) -> Self {
        Observer {
            member,
            guard,
            interventions: Interventions::default(),
        }
    }
}

/// The guards watching one trajectory of a guard family (a *trunk*).
///
/// Until a guard answers something other than [`GuardAction::Allow`], it
/// changes nothing its member simulates, so every member runs the same
/// trajectory up to its guard's first action and the family runs it once.
/// [`Trunk::judge`] shows each write to every guard on the trunk. A guard
/// that acts leaves: the engine is forked ([`HammerBackend::fork`]), the
/// action is carried out on the fork, and the member's loop finishes alone
/// there before the trunk goes on (depth-first, so at most one fork is
/// alive beside a trunk). The last guard on a trunk without a *rider* (a
/// member without a guard, which needs the trunk's own end) carries its
/// actions out on the trunk itself, so a one-member family never forks.
///
/// This is exact because a guard's answers may depend only on the
/// observations it is given (see [`Countermeasure`]).
#[derive(Debug, Default)]
pub struct Trunk<'g> {
    observers: Vec<Observer<'g>>,
    rider: bool,
}

impl<'g> Trunk<'g> {
    /// A trunk watched by `observers`, in member order; `rider` says a
    /// member without a guard rides it to its end.
    pub fn new(observers: Vec<Observer<'g>>, rider: bool) -> Self {
        Trunk { observers, rider }
    }

    /// Whether any guard is still watching.
    pub fn is_watched(&self) -> bool {
        !self.observers.is_empty()
    }

    /// Shows write number `write` (1-based) of `cell` to every guard on the
    /// trunk: `peak` is the crosstalk ΔT sampled after the pulse, the time
    /// is the engine's after the gap. Each guard that acts and must leave
    /// gets a fork of `engine` with its action carried out, and `branch`
    /// finishes the member's loop on it; the fork is dropped when `branch`
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if a guard must leave and `engine` cannot fork.
    pub fn judge<B: HammerBackend + ?Sized>(
        &mut self,
        engine: &mut B,
        cell: CellAddress,
        write: u64,
        peak: Kelvin,
        mut branch: impl FnMut(&mut dyn HammerBackend, Observer<'g>),
    ) {
        let now = engine.elapsed();
        let mut i = 0;
        while i < self.observers.len() {
            let action = self.observers[i].guard.on_write(cell, now, peak);
            if action == GuardAction::Allow {
                i += 1;
            } else if self.observers.len() == 1 && !self.rider {
                self.observers[i]
                    .interventions
                    .carry_out(engine, cell, write, action);
                i += 1;
            } else {
                let mut observer = self.observers.remove(i);
                let mut fork = engine
                    .fork()
                    .expect("a guard family forks only engines that can fork");
                observer
                    .interventions
                    .carry_out(fork.as_mut(), cell, write, action);
                branch(fork.as_mut(), observer);
            }
        }
    }

    /// The guards still on the trunk.
    pub fn into_observers(self) -> Vec<Observer<'g>> {
        self.observers
    }
}

/// Refreshes the half-selected neighbours of `cell`: every HRS cell in its
/// row and column is rewritten (erasing partial SET drift); LRS cells are
/// left alone so legitimate data survives. Returns the number of cells
/// rewritten — the unit the refresh energy/latency model charges for.
pub fn apply_refresh<B: HammerBackend + ?Sized>(engine: &mut B, cell: CellAddress) -> u64 {
    let (rows, cols) = (engine.rows(), engine.cols());
    let mut rewritten = 0;
    for col in 0..cols {
        rewritten += refresh_if_hrs(engine, CellAddress::new(cell.row, col));
    }
    for row in 0..rows {
        if row != cell.row {
            rewritten += refresh_if_hrs(engine, CellAddress::new(row, cell.col));
        }
    }
    rewritten
}

fn refresh_if_hrs<B: HammerBackend + ?Sized>(engine: &mut B, address: CellAddress) -> u64 {
    if engine.read(address) == DigitalState::Hrs {
        engine.force_state(address, DigitalState::Hrs);
        1
    } else {
        0
    }
}

/// Replays the workload against `guard` on `engine` and returns the guard's
/// interventions, every one of them a false trigger. Deterministic: the
/// cell sequence depends only on [`BenignWorkload::seed`], and guards are
/// required to answer deterministically, so the same workload and guard
/// state produce the identical tally on every backend, shard and run. This
/// is [`run_benign_family`] with one guard, which never forks.
pub fn run_benign_workload<B: HammerBackend + ?Sized>(
    engine: &mut B,
    guard: &mut dyn Countermeasure,
    workload: &BenignWorkload,
) -> Interventions {
    run_benign_family(engine, vec![guard], workload)[0]
}

/// Replays the workload once for a guard family: every guard in `guards`
/// watches one shared stream on `engine`, and a guard leaves it on a fork
/// where it first acts ([`Trunk`]). Returns each guard's interventions, in
/// order, each identical to [`run_benign_workload`] with that guard alone
/// on a copy of `engine`.
///
/// # Panics
///
/// Panics if a guard must fork off an engine that cannot fork
/// ([`HammerBackend::fork`]); one guard never forks.
pub fn run_benign_family<B: HammerBackend + ?Sized>(
    engine: &mut B,
    guards: Vec<&mut dyn Countermeasure>,
    workload: &BenignWorkload,
) -> Vec<Interventions> {
    let mut tallies = vec![Interventions::default(); guards.len()];
    let observers = guards.into_iter().enumerate();
    let trunk = Trunk::new(observers.map(|(i, g)| Observer::new(i, g)).collect(), false);
    let start = Replay {
        write: 0,
        stream: workload.seed,
    };
    replay(engine, workload, start, trunk, &mut tallies);
    tallies
}

/// Where a benign replay stands between two writes; a fork copies it.
#[derive(Debug, Clone, Copy)]
struct Replay {
    /// Writes made so far.
    write: u64,
    /// The cell-selection stream's state.
    stream: u64,
}

/// Runs the workload from `at` to its end on `engine` under `trunk`, and
/// files each guard's tally in `tallies` when its member finishes.
fn replay<B: HammerBackend + ?Sized>(
    engine: &mut B,
    workload: &BenignWorkload,
    mut at: Replay,
    mut trunk: Trunk<'_>,
    tallies: &mut [Interventions],
) {
    let (rows, cols) = (engine.rows(), engine.cols());
    let cells = (rows * cols) as u64;
    while at.write < workload.writes {
        at.write += 1;
        let index = (splitmix64(&mut at.stream) % cells) as usize;
        let cell = CellAddress::new(index / cols, index % cols);
        engine.apply_pulse(cell, workload.amplitude, workload.pulse_length);
        let peak = engine.peak_crosstalk();
        if workload.gap.0 > 0.0 {
            engine.idle(workload.gap);
        }
        trunk.judge(engine, cell, at.write, peak, |fork, observer| {
            replay(
                fork,
                workload,
                at,
                Trunk::new(vec![observer], false),
                tallies,
            );
        });
    }
    for observer in trunk.into_observers() {
        tallies[observer.member] = observer.interventions;
    }
}

/// One step of the splitmix64 stream — the tiny, portable PRNG behind the
/// benign cell selection (deliberately independent of the Monte Carlo
/// device-sampling streams in `rram-variability`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{ScrubbingGuard, ThermalSensorGuard, WriteCounterGuard};
    use rram_crossbar::{EngineConfig, PulseEngine};
    use rram_jart::DeviceParams;
    use rram_units::Kelvin;

    fn engine() -> PulseEngine {
        PulseEngine::with_uniform_coupling(
            5,
            5,
            DeviceParams::default(),
            0.15,
            EngineConfig::default(),
        )
    }

    fn workload() -> BenignWorkload {
        BenignWorkload {
            writes: 64,
            seed: 7,
            ..BenignWorkload::default()
        }
    }

    #[test]
    fn the_stream_is_deterministic() {
        let run = || {
            let mut guard = WriteCounterGuard::new(4, Seconds(1.0));
            run_benign_workload(&mut engine(), &mut guard, &workload())
        };
        assert_eq!(run(), run());
        // A different seed selects different cells, so the trigger pattern
        // (generally) differs; either way each trigger is one of the writes.
        let mut guard = WriteCounterGuard::new(4, Seconds(1.0));
        let other = run_benign_workload(
            &mut engine(),
            &mut guard,
            &BenignWorkload {
                seed: 8,
                ..workload()
            },
        );
        assert!(other.count <= workload().writes);
    }

    #[test]
    fn lax_guards_do_not_fire_on_benign_traffic() {
        let mut guard = WriteCounterGuard::new(1_000_000, Seconds(1.0));
        let report = run_benign_workload(&mut engine(), &mut guard, &workload());
        assert_eq!(report.count, 0);
        assert_eq!(report.throttle_time.0, 0.0);

        let mut guard = ThermalSensorGuard::new(Kelvin(500.0), Seconds(1e-6));
        let report = run_benign_workload(&mut engine(), &mut guard, &workload());
        assert_eq!(report.count, 0);
    }

    #[test]
    fn scrubbing_pays_its_periodic_cost_on_benign_traffic() {
        // The workload spans 64 × 200 ns = 12.8 µs; a 2 µs scrub period
        // must fire several times.
        let mut guard = ScrubbingGuard::new(Seconds(2e-6));
        let report = run_benign_workload(&mut engine(), &mut guard, &workload());
        assert!(report.refreshes >= 4, "{report:?}");
        assert_eq!(report.count, report.refreshes);
    }

    #[test]
    fn nominal_time_matches_the_write_train() {
        assert!((workload().nominal_time().0 - 64.0 * 200e-9).abs() < 1e-15);
    }

    #[test]
    fn refresh_rewrites_only_hrs_cells() {
        let mut e = engine();
        e.force_state(CellAddress::new(2, 2), DigitalState::Lrs);
        let rewritten = apply_refresh(&mut e, CellAddress::new(2, 2));
        // Row 2 + column 2 minus the shared LRS cell: 4 + 4 HRS cells.
        assert_eq!(rewritten, 8);
        assert_eq!(e.read(CellAddress::new(2, 2)), DigitalState::Lrs);
    }
}
