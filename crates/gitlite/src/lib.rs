//! # gitlite — a from-scratch version-control substrate with Git semantics
//!
//! The GitCite paper (Chen & Davidson) defines its citation model over
//! Git's data model: a *project repository* is a DAG of versions, each
//! version a rooted directory tree (§2). The paper's implementation runs on
//! real Git and GitHub; this crate rebuilds the parts of Git the citation
//! system actually depends on, from scratch, so the reproduction is
//! self-contained and deterministic:
//!
//! * **Content addressing** — SHA-1 object ids over Git's canonical object
//!   encodings ([`hash`], [`object`], [`codec`]); identical content has the
//!   same id in every repository, which is what lets `CopyCite`/`ForkCite`
//!   deduplicate and track content across projects.
//! * **Object database** — blobs, trees, commits ([`store`]), including a
//!   packfile backend with fanout-indexed consolidated storage ([`pack`])
//!   and a generation-numbered commit-graph index that makes history
//!   walks near O(output) ([`graph`]).
//! * **Repositories** — branches, HEAD, worktree, commit/checkout/log
//!   ([`repo`], [`worktree`], [`snapshot`]).
//! * **Diffs** — tree diffs with rename detection, including inferred
//!   directory renames ([`diff`], [`textdiff`]); citation keys follow
//!   renames through these.
//! * **Merges** — merge-base selection and a three-way tree merge that
//!   descends only where both sides changed, with diff3 conflict markers
//!   ([`mergebase`], [`merge`]).
//! * **Remotes** — clone and push between repositories ([`remote`]).
//!
//! ```
//! use gitlite::{Repository, Signature, path};
//!
//! let mut repo = Repository::init("demo");
//! repo.worktree_mut().write(&path("README.md"), &b"# demo\n"[..]).unwrap();
//! let c1 = repo.commit(Signature::new("alice", "alice@example.org", 1), "initial").unwrap();
//! assert_eq!(repo.log_head().unwrap(), vec![c1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod codec;
pub mod diff;
pub mod error;
pub mod graph;
pub mod hash;
pub mod merge;
pub mod mergebase;
pub mod metrics;
pub mod object;
pub mod pack;
pub mod path;
pub mod remote;
pub mod repo;
pub mod snapshot;
pub mod store;
pub mod textdiff;
pub mod worktree;

pub use annotate::{annotate, LineOrigin};
pub use diff::{diff_listings, diff_trees, Rename, TreeDiff, RENAME_THRESHOLD};
pub use error::{GitError, Result};
pub use graph::{CommitGraph, GraphEntry, PathChange, GRAPH_FILE};
pub use hash::{ObjectId, Sha1};
pub use merge::{merge_listings, merge_trees, Conflict, ConflictKind, MergeOptions, TreeMerge};
pub use mergebase::{ancestor_set, merge_base};
pub use metrics::StoreReadStats;
pub use object::{Blob, Commit, EntryMode, Object, Signature, Tree, TreeEntry};
pub use pack::{
    apply_delta, compute_delta, encode_pack, encode_pack_deltified, index_pack, EncodedPack,
    MaintenanceReport, Pack, PackIndex, PackStore, MAX_DELTA_DEPTH, PACK_DIR,
};
pub use path::{path, PathError, RepoPath};
pub use remote::{
    clone_bare_into, clone_repository, clone_repository_into, push, transfer_objects,
};
pub use repo::{Head, LogPage, Repository, DEFAULT_BRANCH};
pub use snapshot::{
    flatten_tree, read_tree, resolve_path, tree_directories, write_tree, write_tree_from_listing,
};
pub use store::{
    verify_claimed_id, CacheStats, CachedStore, DiskStore, MemStore, ObjectStore, ObjectStoreExt,
    Odb, DEFAULT_CACHE_CAPACITY,
};
pub use textdiff::{
    bag_similarity, diff3_merge, lcs_matches, sequence_similarity, Diff3Result, MergeLabels,
};
pub use worktree::WorkTree;
