//! The four workloads: what each hosts, who drives it, and at what rate.
//! Why each exists is in the README; the paced rates are calibrated there.

use crate::gen::{Class, Mix, ProjectSpec};

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Two anonymous visitor sessions over the socket.
    Visitors,
    /// A member session (session A) beside a visitor session (session B).
    Editors,
    /// One developer running the `gitcite` CLI, one command at a time.
    Developer,
}

/// One workload's fixed definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub spec: ProjectSpec,
    /// Session mixes, one per session (the developer has one).
    pub mixes: &'static [Mix],
    /// Paced rate of each session, requests per second (hub workloads):
    /// a sixth to a fifth of what each session sustained closed-loop, both
    /// sessions running, on the calibration commit and machine (`e2ebench
    /// --capacity`; the numbers are in `calibration.json`). At that load
    /// requests seldom queue at the hub's one CPU, so latency follows
    /// service time rather than amplifying the machine's own drift.
    pub rates: &'static [f64],
}

const VISITOR: Mix = &[
    (Class::GenCite, 50),
    (Class::CiteEntry, 15),
    (Class::ReadFile, 15),
    (Class::LogPage, 10),
    (Class::ListFiles, 5),
    (Class::Branches, 5),
];

const VISITOR_CLONES: Mix = &[
    (Class::GenCite, 50),
    (Class::CiteEntry, 15),
    (Class::ReadFile, 15),
    (Class::LogPage, 10),
    (Class::ListFiles, 5),
    (Class::Branches, 4),
    (Class::Clone, 1),
];

const MEMBER: Mix = &[
    (Class::Modify, 4),
    (Class::Add, 3),
    (Class::Del, 1),
    (Class::Push, 2),
];

/// The local developer's command mix.
pub const DEVELOPER: Mix = &[
    (Class::Commit, 11),
    (Class::CliAdd, 1),
    (Class::CliModify, 1),
    (Class::CiteShow, 3),
    (Class::Log, 2),
    (Class::HubPush, 2),
];

const SMALL: ProjectSpec = ProjectSpec {
    files: 200,
    citations: 20,
    commits: 200,
};

const DEEP: ProjectSpec = ProjectSpec {
    files: 256,
    citations: 100,
    commits: 3000,
};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cite-small",
        kind: Kind::Visitors,
        spec: SMALL,
        mixes: &[VISITOR, VISITOR],
        rates: &[350.0, 350.0],
    },
    Workload {
        name: "cite-deep",
        kind: Kind::Visitors,
        spec: DEEP,
        mixes: &[VISITOR_CLONES, VISITOR_CLONES],
        rates: &[18.0, 18.0],
    },
    Workload {
        name: "edit-deep",
        kind: Kind::Editors,
        spec: DEEP,
        mixes: &[MEMBER, VISITOR],
        rates: &[15.0, 30.0],
    },
    Workload {
        name: "local-dev",
        kind: Kind::Developer,
        spec: ProjectSpec {
            files: 256,
            citations: 20,
            commits: 200,
        },
        mixes: &[DEVELOPER],
        rates: &[],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
