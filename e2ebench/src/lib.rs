//! End-to-end benchmark of the GitCite system: the shipped `gitcite hub
//! serve` process driven over its socket the way the browser extension
//! drives it, and the `gitcite` CLI driven the way a developer does, with
//! every answer checked against an oracle. See `README.md`.

pub mod compare;
pub mod drive;
pub mod gen;
pub mod hubrun;
pub mod localdev;
pub mod oracle;
pub mod proc;
pub mod report;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workload;
