//! Calibration sweep used to pick the default kinetic parameters.
//!
//! Prints, for a grid of (activation energy, attempt frequency) pairs, the
//! three characteristic times that define the NeuroHammer operating regime:
//! nominal SET, half-select disturb at ambient, and
//! half-select disturb with a Fig. 2a-like 55 K crosstalk temperature.
//!
//! Run with `cargo run -p rram-jart --release --example calibrate_sweep`.

use rram_jart::calibration::{calibrate, SwitchingTime};
use rram_jart::DeviceParams;

fn fmt(t: SwitchingTime) -> String {
    match t {
        SwitchingTime::Switched(s) => format!("{:.3e} s", s.0),
        SwitchingTime::NotSwitchedWithin(b) => format!("> {:.1e} s", b.0),
    }
}

fn main() {
    println!(
        "{:>6} {:>9} | {:>12} {:>12} {:>12} | {:>8} {:>8}",
        "Ea", "nu0", "SET@1.05V", "V/2@300K", "V/2 +55K", "T_fil", "ratio"
    );
    for &ea in &[1.05, 1.15, 1.25, 1.35, 1.45] {
        for &nu0 in &[1e11, 1e12, 1e13, 1e14, 1e15, 1e16] {
            let params = DeviceParams::builder()
                .ea_set(ea)
                .attempt_frequency(nu0)
                .build()
                .expect("valid params");
            let report = calibrate(&params);
            let ratio = match (
                report.half_select_ambient.time(),
                report.half_select_heated.time(),
            ) {
                (Some(a), Some(h)) => format!("{:.1}", a.0 / h.0),
                (None, Some(_)) => ">big".to_string(),
                _ => "-".to_string(),
            };
            println!(
                "{:>6.2} {:>9.1e} | {:>12} {:>12} {:>12} | {:>7.0}K {:>8}",
                ea,
                nu0,
                fmt(report.nominal_set),
                fmt(report.half_select_ambient),
                fmt(report.half_select_heated),
                report.hammered_filament_temperature.0,
                ratio
            );
        }
    }
}
