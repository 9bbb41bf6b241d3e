//! The NeuroHammer reproduction's benchmark: three workloads run through
//! the programs' public entry points, end-to-end metrics checked against
//! reference outcomes, and a traced run that times each layer from
//! outside. See `README.md` beside this crate for the workloads, metrics
//! and how to run them; `run.py` is the entry point.

#![deny(unsafe_code)]

pub mod flow;
pub mod probe;
pub mod reference;
pub mod replay;
pub mod service;
pub mod spans;
pub mod timing;
pub mod workload;

/// Named metrics with units, in output order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric; a non-finite value is recorded as 0.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// The metrics as a JSON object of `{"value": v, "unit": u}` entries.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }
}

/// Provenance of a result: the machine, the SIMD tier, the workload
/// definition and seed, as one JSON object.
pub fn provenance(workload: workload::Workload, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"population_seed\": {}, \"definition\": \"{}\", \
         \"nproc\": {nproc}, \"simd_detected\": \"{}\", \"simd_active\": \"{}\", \"features\": \"default\", \
         \"threads\": {}}}",
        workload.name(),
        if workload.sampled() {
            workload::population_seed(seed).to_string()
        } else {
            "null".to_string()
        },
        workload::definition_hash(workload, seed),
        rram_jart::simd::detected().label(),
        rram_jart::simd::active().label(),
        workload.threads()
    )
}
