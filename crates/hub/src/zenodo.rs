//! A Zenodo-style deposit archive that mints DOIs for released versions.
//!
//! The paper motivates GitCite against the Zenodo workflow: "A released
//! version of a software project may be treated as open-access data and
//! uploaded to \[a\] public hosting platform like Zenodo which provides a
//! DOI, thus enabling more traditional citations and ensuring
//! persistence" (§1). This simulator freezes a version (commit + tree
//! ids) under a deterministic DOI so root citations can carry real,
//! resolvable DOIs end-to-end.

use gitlite::ObjectId;
use std::collections::BTreeMap;

/// The DOI prefix used for minted identifiers (Zenodo's real prefix).
pub const DOI_PREFIX: &str = "10.5281/zenodo";

/// A frozen release record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deposit {
    /// The minted DOI, e.g. `10.5281/zenodo.3`.
    pub doi: String,
    /// Hosted repository id (`owner/name`).
    pub repo_id: String,
    /// The released commit.
    pub version: ObjectId,
    /// The released root tree (content identity of the release).
    pub tree: ObjectId,
    /// Release title (repository name + version label).
    pub title: String,
    /// Credited creators.
    pub creators: Vec<String>,
    /// Hub timestamp of the deposit.
    pub deposited_at: i64,
}

/// The deposit store.
#[derive(Debug, Default)]
pub struct Zenodo {
    deposits: BTreeMap<String, Deposit>,
    next_id: u64,
}

impl Zenodo {
    /// The deposit a release of `version` gets, without storing it:
    /// the next DOI, or the existing one when that version of that
    /// repository is already deposited (idempotent releases). Storing is
    /// [`Zenodo::ingest`]'s job, so the hub logs exactly what it stores.
    pub fn mint(
        &self,
        repo_id: &str,
        version: ObjectId,
        tree: ObjectId,
        title: &str,
        creators: Vec<String>,
        timestamp: i64,
    ) -> Deposit {
        let released = |d: &&Deposit| d.repo_id == repo_id && d.version == version;
        if let Some(existing) = self.deposits.values().find(released) {
            return existing.clone();
        }
        Deposit {
            doi: format!("{DOI_PREFIX}.{}", self.next_id + 1),
            repo_id: repo_id.to_owned(),
            version,
            tree,
            title: title.to_owned(),
            creators,
            deposited_at: timestamp,
        }
    }

    /// Stores a deposit under its already-minted DOI and returns whether
    /// the DOI is new here. Idempotent: storing an existing DOI again
    /// overwrites it with identical content. The mint counter advances
    /// past any numeric suffix seen, so a later [`Zenodo::mint`] (e.g.
    /// after a follower's promotion to primary) never re-mints a stored
    /// DOI.
    pub fn ingest(&mut self, deposit: Deposit) -> bool {
        if let Some(n) = deposit
            .doi
            .strip_prefix(DOI_PREFIX)
            .and_then(|rest| rest.strip_prefix('.'))
            .and_then(|n| n.parse::<u64>().ok())
        {
            self.next_id = self.next_id.max(n);
        }
        self.deposits.insert(deposit.doi.clone(), deposit).is_none()
    }

    /// Resolves a DOI to its deposit.
    pub fn resolve(&self, doi: &str) -> Option<&Deposit> {
        self.deposits.get(doi)
    }

    /// All deposits, in DOI order.
    pub fn deposits(&self) -> impl Iterator<Item = &Deposit> {
        self.deposits.values()
    }

    /// Number of deposits.
    pub fn len(&self) -> usize {
        self.deposits.len()
    }

    /// True when nothing has been deposited.
    pub fn is_empty(&self) -> bool {
        self.deposits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u8) -> ObjectId {
        ObjectId::hash_bytes(&[n])
    }

    impl Zenodo {
        /// Mint and store, as a hub's deposit does.
        fn deposit(
            &mut self,
            repo_id: &str,
            version: ObjectId,
            tree: ObjectId,
            title: &str,
            creators: Vec<String>,
            timestamp: i64,
        ) -> Deposit {
            let deposit = self.mint(repo_id, version, tree, title, creators, timestamp);
            self.ingest(deposit.clone());
            deposit
        }
    }

    #[test]
    fn mints_sequential_dois() {
        let mut z = Zenodo::default();
        let d1 = z
            .deposit("a/p", id(1), id(2), "p v1", vec!["alice".into()], 10)
            .doi
            .clone();
        let d2 = z
            .deposit("a/p", id(3), id(4), "p v2", vec!["alice".into()], 20)
            .doi
            .clone();
        assert_eq!(d1, "10.5281/zenodo.1");
        assert_eq!(d2, "10.5281/zenodo.2");
        assert_eq!(z.len(), 2);
    }

    #[test]
    fn deposit_is_idempotent_per_version() {
        let mut z = Zenodo::default();
        let d1 = z
            .deposit("a/p", id(1), id(2), "p v1", vec![], 10)
            .doi
            .clone();
        let d2 = z
            .deposit("a/p", id(1), id(2), "p v1 again", vec![], 30)
            .doi
            .clone();
        assert_eq!(d1, d2);
        assert_eq!(z.len(), 1);
        // Same version in a *different* repo gets its own DOI.
        let d3 = z.deposit("b/q", id(1), id(2), "q", vec![], 40).doi.clone();
        assert_ne!(d1, d3);
    }

    #[test]
    fn resolve_round_trip() {
        let mut z = Zenodo::default();
        let doi = z
            .deposit(
                "a/p",
                id(1),
                id(2),
                "p v1",
                vec!["alice".into(), "bob".into()],
                10,
            )
            .doi
            .clone();
        let dep = z.resolve(&doi).unwrap();
        assert_eq!(dep.repo_id, "a/p");
        assert_eq!(dep.version, id(1));
        assert_eq!(dep.creators, vec!["alice".to_owned(), "bob".to_owned()]);
        assert!(z.resolve("10.5281/zenodo.999").is_none());
    }
}
