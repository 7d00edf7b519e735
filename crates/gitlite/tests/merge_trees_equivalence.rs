//! `merge_trees` against its reference. On random three-way trees,
//! merging entry by entry must make exactly the tree that the whole-listing
//! merge (`merge_listings` + `write_tree_from_listing`) makes, with the same
//! conflicts in path order, on a `MemStore` and on a cached pack store.
//!
//! The trees nest up to three levels and come from random writes and
//! deletes on a shared base, so one-sided and two-sided edits, deletes,
//! identical changes, file/directory clashes and names that a displaced
//! file's `<path>~<label>` would take all come up; sometimes the base is
//! missing, as for unrelated histories. Trees built from listings hold no
//! empty directory, which the listing merge cannot represent.

use gitlite::{
    merge_listings, merge_trees, path, write_tree_from_listing, CachedStore, MemStore, MergeLabels,
    MergeOptions, Object, ObjectId, ObjectStore, ObjectStoreExt, PackStore, RepoPath,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Names at every level; the last two are what a displaced `a` is kept
/// under, so those names are sometimes taken.
const NAMES: &[&str] = &["a", "b", "a~ours", "a~the_irs"];

/// Contents chosen so that edits merge cleanly (lines 1 and 5) or
/// conflict (two edits of line 1).
const CONTENTS: &[&str] = &[
    "1\n2\n3\n4\n5\n",
    "X\n2\n3\n4\n5\n",
    "1\n2\n3\n4\nY\n",
    "Z\n2\n3\n4\n5\n",
    "",
];

const LABELS: MergeLabels<'static> = MergeLabels {
    ours: "ours",
    base: "base",
    theirs: "the/irs",
};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A path of one to three components, picked by `n`.
fn pick_path(n: u8) -> RepoPath {
    let mut n = n as usize;
    let depth = 1 + n % 3;
    n /= 3;
    let mut parts = Vec::new();
    for _ in 0..depth {
        parts.push(NAMES[n % NAMES.len()]);
        n /= NAMES.len();
    }
    path(&parts.join("/"))
}

type Listing = BTreeMap<RepoPath, usize>;

/// Applies `(path, action)` edits: a write replaces whatever file or
/// directory stands in its way, a delete removes a file or a directory.
fn edit(mut listing: Listing, ops: &[(u8, u8)]) -> Listing {
    for &(p, action) in ops {
        let p = pick_path(p);
        listing.retain(|q, _| !q.starts_with(&p) && !p.starts_with(q));
        if action % 4 != 0 {
            listing.insert(p, (action as usize / 4) % CONTENTS.len());
        }
    }
    listing
}

/// Merges the three listings both ways on `odb` and returns the tree id
/// and conflicts each way made.
fn both_ways<S: ObjectStore>(
    odb: &mut S,
    sides: [&Listing; 3],
) -> Result<(ObjectId, String), TestCaseError> {
    let blobs = sides.map(|listing| {
        listing
            .iter()
            .map(|(p, &c)| (p.clone(), odb.put_blob(CONTENTS[c].as_bytes().to_vec())))
            .collect::<BTreeMap<_, _>>()
    });
    let trees = blobs.each_ref().map(|listing| {
        let id = write_tree_from_listing(odb, listing);
        odb.tree(id).unwrap()
    });
    let (root, conflicts) = merge_trees(odb, &trees[0], &trees[1], &trees[2], LABELS).unwrap();
    let merged = odb.put(Object::Tree(root));

    let [base, ours, theirs] = &blobs;
    let opts = MergeOptions::default();
    let reference = merge_listings(odb, base, ours, theirs, LABELS, &opts);
    let expected = write_tree_from_listing(odb, &reference.listing);
    prop_assert!(
        merged == expected,
        "trees differ\n  base: {base:?}\n  ours: {ours:?}\n  theirs: {theirs:?}\n  \
         expected listing: {:?}",
        reference.listing
    );
    prop_assert_eq!(&conflicts, &reference.conflicts);
    Ok((merged, format!("{conflicts:?}")))
}

proptest! {
    /// Each case runs eight merges. A round's edits build the base from
    /// nothing and each side from the base; one round in six merges
    /// against no base at all.
    #[test]
    fn merge_trees_makes_the_listing_merge(
        rounds in prop::collection::vec(
            (
                prop::collection::vec((any::<u8>(), any::<u8>()), 0..16),
                prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
                prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
                any::<u8>(),
            ),
            8..9,
        ),
    ) {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("gitlite-merge-trees-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut packed = CachedStore::with_capacity(PackStore::open(&dir).unwrap(), 8);
        let mut memory = MemStore::new();
        let mut outcome = Ok(());
        for (base_ops, ours_ops, theirs_ops, unrelated) in &rounds {
            let origin = edit(Listing::new(), base_ops);
            let ours = edit(origin.clone(), ours_ops);
            let theirs = edit(origin.clone(), theirs_ops);
            let base = if unrelated % 6 == 0 { Listing::new() } else { origin };
            let sides = [&base, &ours, &theirs];
            outcome = both_ways(&mut memory, sides).and_then(|in_memory| {
                prop_assert_eq!(both_ways(&mut packed, sides)?, in_memory);
                Ok(())
            });
            if outcome.is_err() {
                break;
            }
        }
        drop(packed);
        std::fs::remove_dir_all(&dir).unwrap();
        outcome?;
    }
}
