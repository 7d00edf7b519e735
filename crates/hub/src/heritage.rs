//! A Software Heritage-style archive with intrinsic identifiers (SWHIDs).
//!
//! Future work #3 of the paper: "we would like to see how to integrate our
//! system with software archives such as the Software Heritage archive"
//! (§5). The real archive identifies every artifact by an *intrinsic*
//! identifier computed from its content using Git-compatible hashing —
//! which `gitlite` also uses, so our SWHIDs are structurally faithful:
//! `swh:1:cnt:<sha1>` for file contents, `swh:1:dir:<sha1>` for
//! directories and `swh:1:rev:<sha1>` for revisions.

use crate::error::{HubError, Result};
use gitlite::{ObjectId, Repository};
use std::collections::{BTreeMap, BTreeSet};

/// The kind of archived object an SWHID names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwhKind {
    /// File content (blob).
    Content,
    /// Directory (tree).
    Directory,
    /// Revision (commit).
    Revision,
}

impl SwhKind {
    fn tag(self) -> &'static str {
        match self {
            SwhKind::Content => "cnt",
            SwhKind::Directory => "dir",
            SwhKind::Revision => "rev",
        }
    }
}

/// Builds the SWHID string for an object id.
pub fn swhid(kind: SwhKind, id: ObjectId) -> String {
    format!("swh:1:{}:{}", kind.tag(), id.to_hex())
}

/// Parses an SWHID string into its kind and object id.
pub fn parse_swhid(s: &str) -> Option<(SwhKind, ObjectId)> {
    let rest = s.strip_prefix("swh:1:")?;
    let (tag, hex) = rest.split_once(':')?;
    let kind = match tag {
        "cnt" => SwhKind::Content,
        "dir" => SwhKind::Directory,
        "rev" => SwhKind::Revision,
        _ => return None,
    };
    Some((kind, ObjectId::from_hex(hex)?))
}

/// Summary of one archival run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveReport {
    /// Origin URL recorded for the snapshot.
    pub origin: String,
    /// SWHIDs of the branch-tip revisions captured.
    pub heads: Vec<String>,
    /// Newly archived objects by kind: `(contents, directories, revisions)`.
    pub new_objects: (usize, usize, usize),
}

/// The archive store.
#[derive(Debug, Default)]
pub struct Heritage {
    contents: BTreeSet<ObjectId>,
    directories: BTreeSet<ObjectId>,
    revisions: BTreeSet<ObjectId>,
    /// Origin → list of visit head SWHIDs (newest visit last).
    origins: BTreeMap<String, Vec<Vec<String>>>,
}

impl Heritage {
    /// Archives everything reachable from every branch of `repo`,
    /// recording a visit for `origin`.
    pub fn archive(&mut self, origin: &str, repo: &Repository) -> Result<ArchiveReport> {
        let tips: Vec<ObjectId> = repo.branches().map(|(_, tip)| tip).collect();
        if tips.is_empty() {
            return Err(HubError::BadRequest(
                "repository has no commits to archive".into(),
            ));
        }
        // One raw walk: each object's kind is its bytes' prefix.
        let mut new_objects = (0usize, 0usize, 0usize);
        repo.odb()
            .walk_raw(&tips, &mut |id, bytes| {
                if bytes.starts_with(b"blob ") {
                    new_objects.0 += usize::from(self.contents.insert(id));
                } else if bytes.starts_with(b"tree ") {
                    new_objects.1 += usize::from(self.directories.insert(id));
                } else {
                    new_objects.2 += usize::from(self.revisions.insert(id));
                }
            })
            .map_err(HubError::Git)?;
        let heads: Vec<String> = tips.iter().map(|t| swhid(SwhKind::Revision, *t)).collect();
        self.origins
            .entry(origin.to_owned())
            .or_default()
            .push(heads.clone());
        Ok(ArchiveReport {
            origin: origin.to_owned(),
            heads,
            new_objects,
        })
    }

    /// True when the archive holds the object behind an SWHID.
    pub fn contains(&self, swhid_str: &str) -> bool {
        match parse_swhid(swhid_str) {
            Some((SwhKind::Content, id)) => self.contents.contains(&id),
            Some((SwhKind::Directory, id)) => self.directories.contains(&id),
            Some((SwhKind::Revision, id)) => self.revisions.contains(&id),
            None => false,
        }
    }

    /// Resolves an SWHID, failing when absent or malformed.
    pub fn resolve(&self, swhid_str: &str) -> Result<(SwhKind, ObjectId)> {
        let parsed =
            parse_swhid(swhid_str).ok_or_else(|| HubError::SwhidNotFound(swhid_str.to_owned()))?;
        if self.contains(swhid_str) {
            Ok(parsed)
        } else {
            Err(HubError::SwhidNotFound(swhid_str.to_owned()))
        }
    }

    /// Number of visits recorded for an origin.
    pub fn visits(&self, origin: &str) -> usize {
        self.origins.get(origin).map(Vec::len).unwrap_or(0)
    }

    /// Archive-wide object counts `(contents, directories, revisions)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.contents.len(),
            self.directories.len(),
            self.revisions.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gitlite::{path, Signature};

    fn sample_repo() -> Repository {
        let mut r = Repository::init("arch");
        r.worktree_mut().write(&path("a.txt"), &b"a\n"[..]).unwrap();
        r.commit(Signature::new("x", "x@x", 1), "c1").unwrap();
        r.worktree_mut()
            .write(&path("b/c.txt"), &b"c\n"[..])
            .unwrap();
        r.commit(Signature::new("x", "x@x", 2), "c2").unwrap();
        r
    }

    #[test]
    fn swhid_format_and_parse() {
        let id = ObjectId::hash_bytes(b"x");
        let s = swhid(SwhKind::Revision, id);
        assert!(s.starts_with("swh:1:rev:"));
        assert_eq!(parse_swhid(&s), Some((SwhKind::Revision, id)));
        assert_eq!(parse_swhid("swh:1:xyz:00"), None);
        assert_eq!(parse_swhid("not-a-swhid"), None);
        assert_eq!(parse_swhid("swh:1:cnt:zz"), None);
    }

    #[test]
    fn archive_captures_full_closure() {
        let repo = sample_repo();
        let mut h = Heritage::default();
        let report = h.archive("https://hub/x/arch", &repo).unwrap();
        // 2 commits, 3 trees (root v1, root v2, b/), 2 blobs.
        assert_eq!(report.new_objects, (2, 3, 2));
        assert_eq!(report.heads.len(), 1);
        assert!(h.contains(&report.heads[0]));
        let tip = repo.head_commit().unwrap();
        assert!(h.contains(&swhid(SwhKind::Revision, tip)));
        let tree = repo.tree_of(tip).unwrap();
        assert!(h.contains(&swhid(SwhKind::Directory, tree)));
    }

    #[test]
    fn second_visit_archives_nothing_new() {
        let repo = sample_repo();
        let mut h = Heritage::default();
        h.archive("origin", &repo).unwrap();
        let second = h.archive("origin", &repo).unwrap();
        assert_eq!(second.new_objects, (0, 0, 0));
        assert_eq!(h.visits("origin"), 2);
        assert_eq!(h.visits("elsewhere"), 0);
    }

    #[test]
    fn resolve_rejects_unknown() {
        let mut h = Heritage::default();
        let repo = sample_repo();
        h.archive("o", &repo).unwrap();
        let bogus = swhid(SwhKind::Content, ObjectId::hash_bytes(b"never stored"));
        assert!(matches!(h.resolve(&bogus), Err(HubError::SwhidNotFound(_))));
        assert!(matches!(
            h.resolve("garbage"),
            Err(HubError::SwhidNotFound(_))
        ));
    }

    #[test]
    fn identical_content_deduplicates_across_repos() {
        // The property SWH relies on: same bytes, same intrinsic id.
        let mut h = Heritage::default();
        let r1 = sample_repo();
        h.archive("o1", &r1).unwrap();
        let mut r2 = Repository::init("other");
        r2.worktree_mut()
            .write(&path("same.txt"), &b"a\n"[..])
            .unwrap();
        r2.commit(Signature::new("y", "y@y", 9), "c").unwrap();
        let report = h.archive("o2", &r2).unwrap();
        // The blob "a\n" was already archived from r1.
        assert_eq!(report.new_objects.0, 0);
    }
}
