//! The repository's benchmark: seeded closed-loop workloads driven over
//! loopback TCP against the `ecrpq-serve` binary, every reply checked against
//! an in-process cold evaluation, plus a traced run that times each layer's
//! public functions in process. See `README.md` in this directory.

pub mod check;
pub mod drive;
pub mod gen;
pub mod layers;
pub mod net;
pub mod spans;
pub mod stats;
