//! The four workloads. Each module's header says why it was chosen.

pub mod archive_analyze;
pub mod archive_scan;
pub mod serve_query;
pub mod trace_predict;
