//! The repository benchmark: end-to-end samples of the `pdfatpg atpg`
//! command on four workloads, checked outputs, and a traced run that
//! attributes time to the pipeline's layers. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod check;
pub mod flow;
pub mod sample;
pub mod stats;
pub mod traced;
pub mod workload;

/// Renders `json` on a single line (the writer's pretty form with the
/// indentation folded away; strings never contain raw newlines).
#[must_use]
pub fn one_line(json: &pdf_telemetry::Json) -> String {
    json.to_pretty().lines().map(str::trim).collect()
}
