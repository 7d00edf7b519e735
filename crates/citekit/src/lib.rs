//! # citekit — the GitCite citation model
//!
//! This crate is the primary contribution of *"Automating Software
//! Citation using GitCite"* (Chen & Davidson): a model and implementation
//! of **software citation with version control**.
//!
//! ## Model (paper §2)
//!
//! * A *project repository* is a DAG of versions; each version is a rooted
//!   directory tree (provided by the [`gitlite`] substrate).
//! * Each version carries a **citation function** ([`CitationFunction`]):
//!   a partial map from tree paths to [`Citation`] records, with the root
//!   always in the active domain.
//! * `Cite(V,P)(n)` resolves a node to its own citation or that of its
//!   *closest cited ancestor* — total because the root is cited.
//!   Alternative interpretations are available via [`ResolvePolicy`].
//! * Citation functions are stored in a `citation.cite` file at the root
//!   of every version (the `file` module), exactly as in the paper's Listing 1.
//!
//! ## Operators (paper §2–3)
//!
//! * [`CitedRepo::add_cite`] / [`CitedRepo::modify_cite`] /
//!   [`CitedRepo::del_cite`] — explicit citation edits.
//! * Carrying through tree edits: renames rewrite keys, deletions drop
//!   entries ([`carry`], run eagerly by [`CitedRepo::rename`] and at
//!   commit time).
//! * [`CitedRepo::merge_cite`] — `MergeCite`: files merge by Git rules,
//!   citation files by union (or the future-work three-way strategy) with
//!   pluggable conflict resolution ([`merge`]); [`version::merge_op`]
//!   makes the same merge in the store, with no worktree.
//! * [`CitedRepo::copy_cite`] — `CopyCite`: subtree copy across
//!   repositories with key migration and effective-citation
//!   materialization ([`copy`]).
//! * [`fork_cite`] — `ForkCite`: repository fork with history and
//!   citations ([`fork`]); [`fork_op`] makes it in the store.
//! * [`retro`] — retroactive citations for legacy repositories
//!   (future work #2).
//!
//! ```
//! use citekit::{Citation, CitedRepo};
//! use gitlite::{path, Signature};
//!
//! let mut repo = CitedRepo::init("P1", "Leshang", "https://hub/P1");
//! repo.write_file(&path("f1.txt"), &b"hello\n"[..]).unwrap();
//! repo.commit(Signature::new("Leshang", "l@upenn.edu", 1), "V1").unwrap();
//!
//! // Before AddCite, f1 resolves to the root citation (C1)...
//! assert_eq!(repo.cite(&path("f1.txt")).unwrap().repo_name, "P1");
//! // ...after AddCite, to its own (C2). (Figure 1, V1 → V2.)
//! let c2 = Citation::builder("P1", "Leshang").author("Leshang").build();
//! repo.add_cite(&path("f1.txt"), c2).unwrap();
//! assert_eq!(repo.cite(&path("f1.txt")).unwrap().author_list, vec!["Leshang"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod carry;
pub mod citation;
pub mod copy;
pub mod error;
pub mod file;
pub mod fork;
pub mod function;
pub mod history;
pub mod index;
pub mod merge;
pub mod ops;
pub mod retro;
pub mod time;
pub mod validate;
pub mod version;

pub use carry::CarryReport;
pub use citation::{Citation, CitationBuilder};
pub use copy::CopyReport;
pub use error::{CiteError, Result};
pub use file::{citation_path, CITATION_FILE};
pub use fork::{fork_cite, fork_op, ForkOptions, ForkOutcome};
pub use function::{CitationFunction, CiteEntry, ResolvePolicy};
pub use history::{diff_functions, CitationEvent, CiteChange};
pub use index::CiteIndex;
pub use merge::{
    CitationConflict, ConflictResolver, FailOnConflict, FnResolver, MergeCiteOutcome,
    MergeCiteReport, MergeStrategy, PreferOurs, PreferTheirs, Resolution,
};
pub use ops::{CiteOp, CitedRepo, CommitOutcome, PrunePolicy};
pub use retro::{retrofit, retrofit_history, RetrofitOptions, RetrofitReport};
pub use time::{format_iso8601, parse_iso8601};
pub use validate::{validate, Violation};
