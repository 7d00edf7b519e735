//! Branch history pages: walked through their cursors they give exactly
//! the branch log, `next` is set on every page but the last, a cursor
//! past the end gives an empty last page, and the first page of a deep
//! history reads only the commits it returns, not the whole history.

use gitlite::{Commit, MemStore, Object, ObjectId, ObjectStore, Repository, Signature, Tree};
use hub::{Hub, Token};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// A `main` branch over `commits` commits with an empty tree: a first
/// parent chain with occasional fresh roots, two-parent and octopus
/// merges back into older commits, and timestamps colliding in pairs
/// (the log's id tie-break). `merges = false` gives a linear history.
fn history(seed: u64, commits: usize, merges: bool) -> Repository {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb) as usize
    };
    let mut repo = Repository::init_with("p", Box::new(MemStore::new()));
    let tree = repo.odb_mut().put(Object::Tree(Tree::new()));
    let mut ids: Vec<ObjectId> = Vec::with_capacity(commits);
    for i in 0..commits {
        let mut parents: Vec<ObjectId> = ids.last().copied().into_iter().collect();
        if merges && !ids.is_empty() {
            match next() % 10 {
                0 => parents.clear(),
                1 | 2 => {
                    for _ in 0..(next() % 2 + 1) {
                        let older = ids[next() % ids.len()];
                        if !parents.contains(&older) {
                            parents.push(older);
                        }
                    }
                }
                _ => {}
            }
        }
        let id = repo.odb_mut().put(Object::Commit(Commit {
            tree,
            parents,
            author: Signature::new("Ann", "ann@x", (i as i64) / 2),
            message: format!("c{i}"),
        }));
        ids.push(id);
    }
    repo.set_branch("main", *ids.last().expect("commits >= 1"))
        .unwrap();
    repo
}

fn owner(hub: &Hub) -> Token {
    hub.register_user("ann", "Ann").unwrap();
    hub.login("ann").unwrap()
}

proptest! {
    /// For limits 1..=7 the pages, followed through their cursors, are
    /// the branch log in order; `next` is `None` exactly on the last page
    /// (so a history whose length is a multiple of the limit has no empty
    /// trailing page); any cursor offset at or past the end answers an
    /// empty page with no `next`.
    #[test]
    fn pages_joined_through_their_cursors_are_the_log(seed in any::<u64>()) {
        let commits = 1 + (seed % 24) as usize;
        let local = history(seed, commits, true);
        let tip = local.branch_tip("main").unwrap();
        let full = local.log(tip).unwrap();
        let hub = Hub::new("https://h");
        let token = owner(&hub);
        let repo_id = hub.import_repo(&token, "p", local).unwrap();
        let logged: Vec<ObjectId> =
            hub.log(&repo_id, "main").unwrap().iter().map(|e| e.id).collect();
        prop_assert_eq!(&logged, &full);

        for limit in 1..=7usize {
            let (mut joined, mut pages, mut cursor) = (Vec::new(), 0, None::<String>);
            loop {
                let page = hub
                    .log_page(&repo_id, "main", cursor.as_deref(), Some(limit as u32))
                    .unwrap();
                pages += 1;
                joined.extend(page.items.iter().map(|e| e.id));
                match page.next {
                    Some(next) => {
                        prop_assert_eq!(page.items.len(), limit);
                        cursor = Some(next);
                    }
                    None => break,
                }
            }
            prop_assert_eq!(&joined, &full);
            prop_assert_eq!(pages, full.len().div_ceil(limit));

            for offset in [full.len(), full.len() + limit, usize::MAX] {
                let past = format!("{}:{offset}", tip.to_hex());
                let page = hub
                    .log_page(&repo_id, "main", Some(&past), Some(limit as u32))
                    .unwrap();
                prop_assert!(page.items.is_empty());
                prop_assert!(page.next.is_none());
            }
        }
    }
}

/// A `MemStore` that records every `commit_ref` call made on it.
#[derive(Debug, Clone, Default)]
struct Counting {
    inner: MemStore,
    fetched: Arc<Mutex<Vec<ObjectId>>>,
}

impl ObjectStore for Counting {
    fn get(&self, id: ObjectId) -> gitlite::Result<Arc<Object>> {
        self.inner.get(id)
    }
    fn commit_ref(&self, id: ObjectId) -> gitlite::Result<Arc<Object>> {
        self.fetched.lock().unwrap().push(id);
        self.inner.commit_ref(id)
    }
    fn put_with_id(&mut self, id: ObjectId, object: Arc<Object>) {
        self.inner.put_with_id(id, object)
    }
    fn contains(&self, id: ObjectId) -> bool {
        self.inner.contains(id)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn ids(&self) -> Vec<ObjectId> {
        self.inner.ids()
    }
    fn clone_box(&self) -> Box<dyn ObjectStore> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The first 25-entry page of a 2,000-commit linear history on a store
/// without a commit-graph (the decode walk) fetches each page commit
/// once, plus the one parent that tells the walk more follow — not the
/// history.
#[test]
fn first_page_of_a_deep_decode_walked_history_fetches_only_the_page() {
    const LIMIT: usize = 25;
    let fetched = Arc::new(Mutex::new(Vec::new()));
    let shared = Arc::clone(&fetched);
    let hub = Hub::with_store_factory(
        "https://h",
        Box::new(move || {
            Box::new(Counting {
                inner: MemStore::new(),
                fetched: Arc::clone(&shared),
            })
        }),
    );
    let token = owner(&hub);
    let repo_id = hub
        .import_repo(&token, "deep", history(7, 2_000, false))
        .unwrap();
    fetched.lock().unwrap().clear();

    let page = hub
        .log_page(&repo_id, "main", None, Some(LIMIT as u32))
        .unwrap();
    assert_eq!(page.items.len(), LIMIT);
    assert!(page.next.is_some());
    let calls = fetched.lock().unwrap().clone();
    let distinct: HashSet<ObjectId> = calls.iter().copied().collect();
    assert_eq!(distinct.len(), calls.len(), "a commit was fetched twice");
    for entry in &page.items {
        assert!(
            distinct.contains(&entry.id),
            "page commit {} not fetched",
            entry.id
        );
    }
    assert!(
        calls.len() <= LIMIT + 1,
        "{} commit fetches for a {LIMIT}-entry page",
        calls.len()
    );
}
