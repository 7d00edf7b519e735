//! The commit-graph: a persisted, generation-numbered index of commit
//! history that makes ancestry walks near O(output).
//!
//! Every history question this system answers — `log`, `merge_base`,
//! reachability for push/fork checks and gc root closures, the citation
//! layer's audit scans — is a walk over the commit DAG. Without an index,
//! each visited commit must be fetched from the object store and decoded
//! from its canonical bytes, so a walk over an N-commit history costs
//! N store lookups *and* N decodes, every time. The commit-graph
//! (mirroring real Git's `commit-graph` file) precomputes exactly the
//! fields walks need and stores parents as *positions* into the index
//! itself, so a warm walk never touches the object store at all.
//!
//! # The `GLCG` file
//!
//! Same framing discipline as the pack formats ([`crate::pack`]): all
//! integers big-endian, a SHA-1 trailer over everything before it, and a
//! 256-entry fanout table over the sorted id list:
//!
//! ```text
//! "GLCG" | u32 version | u32 count | u32 edge_count
//! 256 × u32 cumulative fanout
//! count × 20-byte commit id (sorted ascending)
//! count × ( 20-byte tree id | i64 timestamp | u32 generation
//!         | u32 parent1 | u32 parent2 )
//! edge_count × u32 extra parent positions (octopus merges)
//! [version ≥ 2: changed-path Bloom chunk]
//! 20-byte SHA-1 trailer
//! ```
//!
//! `parent1`/`parent2` are positions into the sorted id table
//! (`0xffff_ffff` = no parent). A commit with more than two parents sets
//! the high bit of `parent2`; the low bits then index the extra-edges
//! table, which lists `parents[1..]` in order, the last entry flagged
//! with the high bit — exactly Git's octopus encoding. Parent *order* is
//! preserved (first-parent walks depend on it).
//!
//! # Changed-path Bloom filters (version 2)
//!
//! Version-2 files append one chunk after the extra edges:
//!
//! ```text
//! u32 hash_count (k) | u32 data_len
//! count × u32 cumulative end offset into the filter data
//! data_len bytes of concatenated per-commit filters
//! ```
//!
//! Commit `pos`'s filter is `data[offsets[pos-1]..offsets[pos]]`
//! (`offsets[-1]` = 0). It is a Bloom filter over every path that
//! changed between the commit and its **first parent** (a root commit
//! diffs against the empty tree), plus each changed path's ancestor
//! directories — so a query for `"a/b/c.txt"` or for the directory
//! `"a"` both answer. A **zero-length** filter means "no filter
//! computed" (queries must fall back to an exact diff); a commit whose
//! diff is empty stores a single zero byte, which answers "definitely
//! unchanged" for every path. Commits touching more than
//! [`MAX_BLOOM_PATHS`] paths opt out (zero length) to bound the chunk.
//!
//! Filters use ~10 bits and `k` double-hashed probes per path
//! (`bit_i = h1 + i·h2 mod bits`, git's parameters). `h1`/`h2` are
//! 64-bit FNV-1a over the path bytes with two offset bases (`h2` forced
//! odd) — this reproduction's stand-in for git's murmur3 pair, chosen
//! because FNV is already the codebase's hash of record. Version-1
//! files parse as "no filter anywhere"; a graph with no filters encodes
//! as version 1, byte-identical to the pre-Bloom format. A corrupt
//! chunk fails the file's SHA-1 trailer and triggers the normal
//! full-scan rebuild.
//!
//! # Generation numbers
//!
//! A commit's generation is the length of the longest path from it to a
//! root commit (roots have generation 0) — identical to the notion the
//! decode-walk `merge_base` computes on the fly. Because a parent's
//! generation is strictly smaller than its child's, generations bound
//! every ancestry question: an alleged ancestor with generation ≥ the
//! descendant's can be rejected without walking, and a best-first walk
//! keyed by `(generation, timestamp, id)` pops commits in strictly
//! decreasing key order, so the first common ancestor it pops *is* the
//! best one — no full ancestor sets.
//!
//! # Lifecycle
//!
//! The file lives next to the packs (`<root>/pack/commit-graph.glcg`)
//! and is written by [`crate::PackStore::repack`] / [`crate::PackStore::gc`]
//! (and therefore by `gitcite gc` and the hub's maintenance sweep). On
//! open, a present-but-corrupt or stale (referencing ids the store no
//! longer holds) graph is rebuilt from a full scan of the store's commit
//! objects — the same recovery policy as a damaged `.idx`. A *missing*
//! graph costs nothing at open and is built by the next maintenance run.
//! Commits created after the graph was written are simply absent from
//! it; walks starting at such a commit fall back to the always-correct
//! decode walk, so a stale graph can delay the speedup but never change
//! an answer.

use crate::error::{GitError, Result};
use crate::hash::ObjectId;
use crate::object::{EntryMode, Tree, TreeEntry};
use crate::store::ObjectStore;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::rc::Rc;

/// Magic bytes opening every commit-graph file.
pub const GRAPH_MAGIC: &[u8; 4] = b"GLCG";
/// Version written when no commit carries a Bloom filter (the original
/// format, byte-for-byte).
pub const GRAPH_VERSION: u32 = 1;
/// Version written when at least one commit carries a changed-path
/// Bloom filter (appends one chunk; see the module docs).
pub const GRAPH_VERSION_BLOOM: u32 = 2;
/// File name of the commit-graph, under the pack directory.
pub const GRAPH_FILE: &str = "commit-graph.glcg";

/// Probes per path in a changed-path Bloom filter (git's default).
pub const BLOOM_K: u32 = 7;
/// Filter bits allocated per changed path (git's default).
pub const BLOOM_BITS_PER_PATH: usize = 10;
/// Commits changing more than this many paths (ancestor directories
/// included) store no filter and always fall back to an exact diff.
pub const MAX_BLOOM_PATHS: usize = 512;

const HEADER_LEN: usize = 16; // magic + version + count + edge_count
const FANOUT_LEN: usize = 1024; // 256 × u32
const ID_LEN: usize = 20;
const RECORD_LEN: usize = 40; // tree 20 + timestamp 8 + generation 4 + p1 4 + p2 4
const TRAILER_LEN: usize = 20; // SHA-1

/// "No parent" sentinel in a record's parent slots.
const NO_PARENT: u32 = 0xffff_ffff;
/// High bit of `parent2`: the low bits index the extra-edges table.
const OCTOPUS_FLAG: u32 = 0x8000_0000;
/// High bit of an extra-edges entry: last parent of this commit.
const LAST_EDGE: u32 = 0x8000_0000;
/// Positions must stay below the flag bits.
const MAX_COMMITS: usize = 0x7fff_ffff;

/// Everything the graph records about one commit. [`CommitGraph::from_entries`]
/// consumes these; [`CommitGraph::build`] produces them by walking a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEntry {
    /// The commit's id.
    pub id: ObjectId,
    /// Its root tree.
    pub tree: ObjectId,
    /// Its author timestamp (what `log` orders by).
    pub timestamp: i64,
    /// Its parent commit ids, in commit order.
    pub parents: Vec<ObjectId>,
}

/// One decoded per-commit record (parents as positions).
#[derive(Debug, Clone, Copy)]
struct Record {
    tree: ObjectId,
    timestamp: i64,
    generation: u32,
    parent1: u32,
    parent2: u32,
}

/// An immutable, position-indexed view of a commit DAG: sorted ids, a
/// fanout table for O(log n) id lookup, and per-commit records whose
/// parent links are positions back into the table — so every walk is
/// array reads, never store fetches or decodes.
#[derive(Debug, Clone)]
pub struct CommitGraph {
    fanout: [u32; 256],
    ids: Vec<ObjectId>,
    records: Vec<Record>,
    edges: Vec<u32>,
    /// Per-position changed-path Bloom filters (`None` = not computed;
    /// always `ids.len()` entries).
    filters: Vec<Option<Box<[u8]>>>,
    /// Probe count the stored filters were built with.
    bloom_k: u32,
}

/// Answer from a changed-path Bloom filter query
/// ([`CommitGraph::path_changed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathChange {
    /// The commit has no filter — run an exact diff.
    Absent,
    /// The filter says the path *may* have changed (Bloom filters can
    /// report false positives, never false negatives).
    Maybe,
    /// The path definitely did not change versus the first parent.
    No,
}

impl CommitGraph {
    // ----- construction -------------------------------------------------

    /// Builds a graph over every commit reachable from `tips`, fetching
    /// and decoding each commit once from `store`. Errors if a reachable
    /// commit (or parent) is missing.
    pub fn build<S: ObjectStore + ?Sized>(store: &S, tips: &[ObjectId]) -> Result<CommitGraph> {
        let mut entries = Vec::new();
        collect_entries(store, tips, &mut HashSet::new(), &mut entries)?;
        CommitGraph::from_entries(entries)
    }

    /// Rebuilds a graph covering this graph's commits **plus** everything
    /// reachable from `tips`, fetching from `store` only the commits this
    /// graph does not already describe — the incremental-extension path
    /// for a graph that is merely stale (new commits since it was
    /// written).
    pub fn extend<S: ObjectStore + ?Sized>(
        &self,
        store: &S,
        tips: &[ObjectId],
    ) -> Result<CommitGraph> {
        let mut entries: Vec<GraphEntry> = (0..self.ids.len() as u32)
            .map(|pos| GraphEntry {
                id: self.ids[pos as usize],
                tree: self.records[pos as usize].tree,
                timestamp: self.records[pos as usize].timestamp,
                parents: self
                    .parents_of(pos)
                    .into_iter()
                    .map(|p| self.ids[p as usize])
                    .collect(),
            })
            .collect();
        let mut seen: HashSet<ObjectId> = self.ids.iter().copied().collect();
        collect_entries(store, tips, &mut seen, &mut entries)?;
        let mut graph = CommitGraph::from_entries(entries)?;
        // Carry filters across the rebuild: positions shift, ids don't.
        graph.bloom_k = self.bloom_k;
        for (old_pos, filter) in self.filters.iter().enumerate() {
            if let (Some(f), Some(new_pos)) = (filter, graph.lookup(self.ids[old_pos])) {
                graph.filters[new_pos as usize] = Some(f.clone());
            }
        }
        Ok(graph)
    }

    /// Assembles a graph from explicit entries. The set must be *closed*:
    /// every parent id must itself appear as an entry (missing parents
    /// are [`GitError::ObjectNotFound`]); a parent cycle — impossible for
    /// content-addressed commits, but `entries` is caller-supplied — is
    /// reported as [`GitError::Corrupt`].
    pub fn from_entries(mut entries: Vec<GraphEntry>) -> Result<CommitGraph> {
        entries.sort_by_key(|e| e.id);
        entries.dedup_by(|a, b| a.id == b.id);
        if entries.len() > MAX_COMMITS {
            return Err(GitError::Corrupt(format!(
                "commit-graph: {} commits exceed the format's 2^31-1 limit",
                entries.len()
            )));
        }
        let pos_of: HashMap<ObjectId, u32> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.id, i as u32))
            .collect();

        // Parents as positions, preserving order.
        let mut parent_positions: Vec<Vec<u32>> = Vec::with_capacity(entries.len());
        for e in &entries {
            let mut ps = Vec::with_capacity(e.parents.len());
            for p in &e.parents {
                match pos_of.get(p) {
                    Some(&pos) => ps.push(pos),
                    None => return Err(GitError::ObjectNotFound(*p)),
                }
            }
            parent_positions.push(ps);
        }

        // Generation numbers: longest path to a root, iteratively (deep
        // histories must not overflow the call stack), detecting cycles.
        const UNSET: u32 = u32::MAX;
        let mut gen = vec![UNSET; entries.len()];
        let mut on_stack = vec![false; entries.len()];
        for start in 0..entries.len() {
            if gen[start] != UNSET {
                continue;
            }
            let mut stack: Vec<(usize, bool)> = vec![(start, false)];
            while let Some((pos, expanded)) = stack.pop() {
                if expanded {
                    on_stack[pos] = false;
                    gen[pos] = parent_positions[pos]
                        .iter()
                        .map(|&p| gen[p as usize] + 1)
                        .max()
                        .unwrap_or(0);
                    continue;
                }
                if gen[pos] != UNSET {
                    continue;
                }
                on_stack[pos] = true;
                stack.push((pos, true));
                for &p in &parent_positions[pos] {
                    if gen[p as usize] == UNSET {
                        if on_stack[p as usize] {
                            return Err(GitError::Corrupt(
                                "commit-graph: parent cycle in entries".into(),
                            ));
                        }
                        stack.push((p as usize, false));
                    }
                }
            }
        }

        // Records plus the octopus extra-edges table.
        let mut records = Vec::with_capacity(entries.len());
        let mut edges: Vec<u32> = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            let ps = &parent_positions[i];
            let (parent1, parent2) = match ps.len() {
                0 => (NO_PARENT, NO_PARENT),
                1 => (ps[0], NO_PARENT),
                2 => (ps[0], ps[1]),
                _ => {
                    let at = edges.len() as u32;
                    for (k, &p) in ps[1..].iter().enumerate() {
                        let last = k + 2 == ps.len();
                        edges.push(if last { p | LAST_EDGE } else { p });
                    }
                    (ps[0], OCTOPUS_FLAG | at)
                }
            };
            records.push(Record {
                tree: e.tree,
                timestamp: e.timestamp,
                generation: gen[i],
                parent1,
                parent2,
            });
        }
        let ids: Vec<ObjectId> = entries.iter().map(|e| e.id).collect();
        let filters = vec![None; ids.len()];
        Ok(CommitGraph {
            fanout: fanout_of(&ids),
            ids,
            records,
            edges,
            filters,
            bloom_k: BLOOM_K,
        })
    }

    // ----- encoding -----------------------------------------------------

    /// Serializes the graph into `GLCG` bytes (see the module docs for
    /// the layout).
    pub fn encode(&self) -> Vec<u8> {
        let with_blooms = self.filters.iter().any(Option::is_some);
        let version = if with_blooms {
            GRAPH_VERSION_BLOOM
        } else {
            GRAPH_VERSION
        };
        let mut out = Vec::with_capacity(
            HEADER_LEN
                + FANOUT_LEN
                + self.ids.len() * (ID_LEN + RECORD_LEN)
                + self.edges.len() * 4
                + TRAILER_LEN,
        );
        out.extend_from_slice(GRAPH_MAGIC);
        out.extend_from_slice(&version.to_be_bytes());
        out.extend_from_slice(&(self.ids.len() as u32).to_be_bytes());
        out.extend_from_slice(&(self.edges.len() as u32).to_be_bytes());
        for f in self.fanout {
            out.extend_from_slice(&f.to_be_bytes());
        }
        for id in &self.ids {
            out.extend_from_slice(&id.0);
        }
        for r in &self.records {
            out.extend_from_slice(&r.tree.0);
            out.extend_from_slice(&r.timestamp.to_be_bytes());
            out.extend_from_slice(&r.generation.to_be_bytes());
            out.extend_from_slice(&r.parent1.to_be_bytes());
            out.extend_from_slice(&r.parent2.to_be_bytes());
        }
        for e in &self.edges {
            out.extend_from_slice(&e.to_be_bytes());
        }
        if with_blooms {
            let data_len: usize = self.filters.iter().flatten().map(|f| f.len()).sum();
            out.extend_from_slice(&self.bloom_k.to_be_bytes());
            out.extend_from_slice(&(data_len as u32).to_be_bytes());
            let mut end = 0u32;
            for f in &self.filters {
                end += f.as_ref().map_or(0, |f| f.len() as u32);
                out.extend_from_slice(&end.to_be_bytes());
            }
            for f in self.filters.iter().flatten() {
                out.extend_from_slice(f);
            }
        }
        let trailer = ObjectId::hash_bytes(&out);
        out.extend_from_slice(&trailer.0);
        out
    }

    /// Parses and validates `GLCG` bytes: magic, version, structural
    /// sizes, the SHA-1 trailer, fanout monotonicity, id ordering, parent
    /// position bounds, edge-table termination, and generation-number
    /// consistency (each commit's generation must be exactly one more
    /// than its deepest parent's — which also proves acyclicity). A graph
    /// that parses is safe to walk without further checks.
    pub fn parse(bytes: &[u8]) -> Result<CommitGraph> {
        let corrupt = |msg: &str| GitError::Corrupt(format!("commit-graph: {msg}"));
        if bytes.len() < HEADER_LEN + FANOUT_LEN + TRAILER_LEN {
            return Err(corrupt("truncated"));
        }
        if &bytes[..4] != GRAPH_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        if version != GRAPH_VERSION && version != GRAPH_VERSION_BLOOM {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let count = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let edge_count = u32::from_be_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let base_len = HEADER_LEN + FANOUT_LEN + count * (ID_LEN + RECORD_LEN) + edge_count * 4;
        let expected = if version == GRAPH_VERSION {
            base_len + TRAILER_LEN
        } else {
            // Bloom chunk: k + data_len + count offsets + data bytes.
            let fixed = base_len + 8 + count * 4 + TRAILER_LEN;
            if bytes.len() < fixed {
                return Err(corrupt("truncated Bloom chunk"));
            }
            let data_len =
                u32::from_be_bytes(bytes[base_len + 4..base_len + 8].try_into().unwrap()) as usize;
            fixed + data_len
        };
        if bytes.len() != expected {
            return Err(corrupt(&format!(
                "size mismatch: {} bytes for {count} commits / {edge_count} edges, expected {expected}",
                bytes.len()
            )));
        }
        let body = &bytes[..bytes.len() - TRAILER_LEN];
        let trailer = &bytes[bytes.len() - TRAILER_LEN..];
        if ObjectId::hash_bytes(body).0 != trailer {
            return Err(corrupt("trailer checksum mismatch"));
        }

        let mut fanout = [0u32; 256];
        for i in 0..256 {
            let at = HEADER_LEN + i * 4;
            fanout[i] = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
            if i > 0 && fanout[i] < fanout[i - 1] {
                return Err(corrupt("fanout not monotone"));
            }
        }
        if fanout[255] as usize != count {
            return Err(corrupt("fanout total disagrees with count"));
        }

        let ids_at = HEADER_LEN + FANOUT_LEN;
        let mut ids = Vec::with_capacity(count);
        for i in 0..count {
            let at = ids_at + i * ID_LEN;
            let mut id = [0u8; 20];
            id.copy_from_slice(&bytes[at..at + 20]);
            let id = ObjectId(id);
            if let Some(prev) = ids.last() {
                if *prev >= id {
                    return Err(corrupt("ids not strictly ascending"));
                }
            }
            ids.push(id);
        }

        let recs_at = ids_at + count * ID_LEN;
        let mut records = Vec::with_capacity(count);
        for i in 0..count {
            let at = recs_at + i * RECORD_LEN;
            let mut tree = [0u8; 20];
            tree.copy_from_slice(&bytes[at..at + 20]);
            records.push(Record {
                tree: ObjectId(tree),
                timestamp: i64::from_be_bytes(bytes[at + 20..at + 28].try_into().unwrap()),
                generation: u32::from_be_bytes(bytes[at + 28..at + 32].try_into().unwrap()),
                parent1: u32::from_be_bytes(bytes[at + 32..at + 36].try_into().unwrap()),
                parent2: u32::from_be_bytes(bytes[at + 36..at + 40].try_into().unwrap()),
            });
        }
        let edges_at = recs_at + count * RECORD_LEN;
        let edges: Vec<u32> = (0..edge_count)
            .map(|i| {
                let at = edges_at + i * 4;
                u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap())
            })
            .collect();

        let mut filters = vec![None; count];
        let mut bloom_k = BLOOM_K;
        if version == GRAPH_VERSION_BLOOM {
            let chunk_at = edges_at + edge_count * 4;
            bloom_k = u32::from_be_bytes(bytes[chunk_at..chunk_at + 4].try_into().unwrap());
            if bloom_k == 0 {
                return Err(corrupt("Bloom hash count is zero"));
            }
            let data_len =
                u32::from_be_bytes(bytes[chunk_at + 4..chunk_at + 8].try_into().unwrap()) as usize;
            let offsets_at = chunk_at + 8;
            let data_at = offsets_at + count * 4;
            let mut start = 0usize;
            for (i, filter) in filters.iter_mut().enumerate() {
                let at = offsets_at + i * 4;
                let end = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
                if end < start || end > data_len {
                    return Err(corrupt("Bloom offsets not monotone"));
                }
                if end > start {
                    *filter = Some(bytes[data_at + start..data_at + end].into());
                }
                start = end;
            }
            if start != data_len {
                return Err(corrupt("Bloom data length disagrees with offsets"));
            }
        }

        let graph = CommitGraph {
            fanout,
            ids,
            records,
            edges,
            filters,
            bloom_k,
        };
        graph.validate_structure()?;
        Ok(graph)
    }

    /// Bounds-checks every parent link and re-derives each generation
    /// from the parents' stored generations (a purely local check that,
    /// when it holds everywhere, proves the stored generations are the
    /// true longest-path numbers and the graph is acyclic).
    fn validate_structure(&self) -> Result<()> {
        let corrupt = |msg: &str| GitError::Corrupt(format!("commit-graph: {msg}"));
        let count = self.ids.len() as u32;
        for pos in 0..count {
            let r = &self.records[pos as usize];
            for slot in [r.parent1, r.parent2] {
                if slot == NO_PARENT {
                    continue;
                }
                if slot & OCTOPUS_FLAG != 0 {
                    if slot == r.parent1 {
                        return Err(corrupt("parent1 carries the octopus flag"));
                    }
                    let mut at = (slot & !OCTOPUS_FLAG) as usize;
                    loop {
                        let Some(&edge) = self.edges.get(at) else {
                            return Err(corrupt("octopus edge list runs off the table"));
                        };
                        if edge & !LAST_EDGE >= count {
                            return Err(corrupt("octopus parent position out of bounds"));
                        }
                        if edge & LAST_EDGE != 0 {
                            break;
                        }
                        at += 1;
                    }
                } else if slot >= count {
                    return Err(corrupt("parent position out of bounds"));
                }
            }
            let expected = self
                .parents_of(pos)
                .into_iter()
                .map(|p| self.records[p as usize].generation.saturating_add(1))
                .max()
                .unwrap_or(0);
            if r.generation != expected {
                return Err(corrupt("generation numbers inconsistent with parents"));
            }
        }
        Ok(())
    }

    // ----- lookup -------------------------------------------------------

    /// Number of commits indexed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no commits are indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The indexed commit ids, ascending.
    pub fn ids(&self) -> &[ObjectId] {
        &self.ids
    }

    /// Position of `id` in the sorted table: fanout bucket, then binary
    /// search inside it.
    pub fn lookup(&self, id: ObjectId) -> Option<u32> {
        let bucket = id.0[0] as usize;
        let lo = if bucket == 0 {
            0
        } else {
            self.fanout[bucket - 1] as usize
        };
        let hi = self.fanout[bucket] as usize;
        let i = self.ids[lo..hi].binary_search(&id).ok()?;
        Some((lo + i) as u32)
    }

    /// True when the graph describes `id`.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.lookup(id).is_some()
    }

    /// The commit id at `pos`.
    pub fn id_at(&self, pos: u32) -> ObjectId {
        self.ids[pos as usize]
    }

    /// The root tree of the commit at `pos`.
    pub fn tree_of(&self, pos: u32) -> ObjectId {
        self.records[pos as usize].tree
    }

    /// The author timestamp of the commit at `pos`.
    pub fn timestamp_of(&self, pos: u32) -> i64 {
        self.records[pos as usize].timestamp
    }

    /// The generation number (longest path to a root) of the commit at
    /// `pos`.
    pub fn generation_of(&self, pos: u32) -> u32 {
        self.records[pos as usize].generation
    }

    /// Parent positions of the commit at `pos`, in commit order.
    pub fn parents_of(&self, pos: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_parent(pos, |p| out.push(p));
        out
    }

    /// Visits the parents of `pos` in commit order without allocating —
    /// the walks' form of [`CommitGraph::parents_of`] (a walk touches
    /// every commit once; a fresh `Vec` per visit would be the only
    /// allocation left on the hot path).
    #[inline]
    fn for_each_parent(&self, pos: u32, mut f: impl FnMut(u32)) {
        let r = &self.records[pos as usize];
        if r.parent1 == NO_PARENT {
            return;
        }
        f(r.parent1);
        if r.parent2 == NO_PARENT {
            return;
        }
        if r.parent2 & OCTOPUS_FLAG == 0 {
            f(r.parent2);
            return;
        }
        let mut at = (r.parent2 & !OCTOPUS_FLAG) as usize;
        loop {
            let edge = self.edges[at];
            f(edge & !LAST_EDGE);
            if edge & LAST_EDGE != 0 {
                break;
            }
            at += 1;
        }
    }

    // ----- walks (positions only — the store is never touched) ----------

    /// The first `n` commits reachable from `from`, newest first (by
    /// timestamp, ties by id), and whether more follow — byte-identical
    /// to [`crate::Repository::log_take`]'s decode walk. Position order
    /// *is* id order (the table is sorted), so `(timestamp, position)`
    /// keys reproduce the reference's `(timestamp, id)` ties. The heap
    /// stops popping after `n`: what it popped is the unbounded walk's
    /// prefix, so `usize::MAX` gives the whole history.
    pub fn log_take(&self, from: u32, n: usize) -> (Vec<ObjectId>, bool) {
        #[derive(PartialEq, Eq)]
        struct Entry(i64, u32);
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0).then_with(|| self.1.cmp(&other.1))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut heap = BinaryHeap::new();
        let mut seen = HashSet::new();
        heap.push(Entry(self.timestamp_of(from), from));
        seen.insert(from);
        let mut out = Vec::new();
        while out.len() < n {
            let Some(Entry(_, pos)) = heap.pop() else {
                break;
            };
            out.push(self.id_at(pos));
            self.for_each_parent(pos, |p| {
                if seen.insert(p) {
                    heap.push(Entry(self.timestamp_of(p), p));
                }
            });
        }
        let more = !heap.is_empty();
        (out, more)
    }

    /// All commits reachable from `from` (inclusive).
    pub fn ancestor_set(&self, from: u32) -> HashSet<ObjectId> {
        let mut seen_pos = HashSet::new();
        let mut stack = vec![from];
        while let Some(pos) = stack.pop() {
            if !seen_pos.insert(pos) {
                continue;
            }
            self.for_each_parent(pos, |p| stack.push(p));
        }
        seen_pos.into_iter().map(|p| self.id_at(p)).collect()
    }

    /// The first-parent chain from `from` back to a root, `from` first.
    pub fn first_parent_chain(&self, from: u32) -> Vec<ObjectId> {
        let mut out = Vec::new();
        let mut cursor = Some(from);
        while let Some(pos) = cursor {
            out.push(self.id_at(pos));
            let p1 = self.records[pos as usize].parent1;
            cursor = (p1 != NO_PARENT).then_some(p1);
        }
        out
    }

    /// True when `anc` is reachable from `desc` (or equal). Generation
    /// numbers prune the walk: only commits with generation strictly
    /// greater than `anc`'s can lie on a path to it.
    pub fn is_ancestor(&self, anc: u32, desc: u32) -> bool {
        if anc == desc {
            return true;
        }
        let floor = self.generation_of(anc);
        if self.generation_of(desc) <= floor {
            return false;
        }
        let mut stack = vec![desc];
        let mut seen = HashSet::new();
        seen.insert(desc);
        let mut found = false;
        while let Some(pos) = stack.pop() {
            self.for_each_parent(pos, |p| {
                if p == anc {
                    found = true;
                } else if self.generation_of(p) > floor && seen.insert(p) {
                    stack.push(p);
                }
            });
            if found {
                return true;
            }
        }
        false
    }

    /// The best common ancestor of `a` and `b`: among all common
    /// ancestors, the one with the greatest `(generation, timestamp, id)`
    /// — the same selection rule as the decode-walk
    /// [`crate::merge_base`], without materializing either ancestor set.
    ///
    /// A single max-heap keyed by `(generation, timestamp, position)`
    /// walks from both tips, tagging each discovered commit with which
    /// side(s) reached it. Generations strictly decrease along parent
    /// edges, so pops occur in strictly decreasing key order and a
    /// commit's tags are complete by the time it is popped (any child
    /// that could still tag it has a larger key and was popped earlier).
    /// The first pop tagged by both sides is therefore exactly the
    /// maximum-key common ancestor. Returns `None` for unrelated
    /// histories.
    pub fn merge_base(&self, a: u32, b: u32) -> Option<ObjectId> {
        if a == b {
            return Some(self.id_at(a));
        }
        const SIDE_A: u8 = 1;
        const SIDE_B: u8 = 2;
        #[derive(PartialEq, Eq)]
        struct Key(u32, i64, u32); // (generation, timestamp, position)
        impl Ord for Key {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                (self.0, self.1, self.2).cmp(&(other.0, other.1, other.2))
            }
        }
        impl PartialOrd for Key {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut flags: HashMap<u32, u8> = HashMap::new();
        let mut heap = BinaryHeap::new();
        for (pos, side) in [(a, SIDE_A), (b, SIDE_B)] {
            flags.insert(pos, side);
            heap.push(Key(self.generation_of(pos), self.timestamp_of(pos), pos));
        }
        while let Some(Key(_, _, pos)) = heap.pop() {
            let side = flags[&pos];
            if side == SIDE_A | SIDE_B {
                return Some(self.id_at(pos));
            }
            self.for_each_parent(pos, |p| match flags.entry(p) {
                MapEntry::Occupied(mut e) => {
                    *e.get_mut() |= side;
                }
                MapEntry::Vacant(e) => {
                    e.insert(side);
                    heap.push(Key(self.generation_of(p), self.timestamp_of(p), p));
                }
            });
        }
        None
    }

    // ----- changed-path Bloom filters -----------------------------------

    /// Asks the commit's Bloom filter whether `path` (a file or a
    /// directory, no leading/trailing slash) changed between the commit
    /// at `pos` and its first parent. [`PathChange::No`] is definitive;
    /// [`PathChange::Maybe`] and [`PathChange::Absent`] require an exact
    /// diff.
    pub fn path_changed(&self, pos: u32, path: &str) -> PathChange {
        let Some(f) = self.filters[pos as usize].as_deref() else {
            return PathChange::Absent;
        };
        let nbits = (f.len() * 8) as u64;
        let (h1, h2) = bloom_hashes(path.as_bytes());
        for i in 0..self.bloom_k as u64 {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2)) % nbits) as usize;
            if f[bit / 8] & (1 << (bit % 8)) == 0 {
                return PathChange::No;
            }
        }
        PathChange::Maybe
    }

    /// Number of commits that carry a changed-path Bloom filter.
    pub fn bloom_coverage(&self) -> usize {
        self.filters.iter().filter(|f| f.is_some()).count()
    }

    /// Drops every filter (the graph then encodes as version 1 again).
    /// Exists for benchmarks and tests that need the exact-diff path.
    pub fn strip_blooms(&mut self) {
        self.filters.iter_mut().for_each(|f| *f = None);
    }

    /// Computes changed-path Bloom filters for every commit that does
    /// not already have one, diffing each commit's root tree against its
    /// first parent's via `fetch` (id → decoded tree). Best-effort: a
    /// commit whose trees cannot be fetched, or whose diff touches more
    /// than [`MAX_BLOOM_PATHS`] paths, simply keeps no filter — queries
    /// fall back to exact diffs, so partial coverage is always safe.
    pub fn compute_blooms<F>(&mut self, mut fetch: F)
    where
        F: FnMut(ObjectId) -> Option<Tree>,
    {
        let mut memo: HashMap<ObjectId, Option<Rc<Tree>>> = HashMap::new();
        for pos in 0..self.ids.len() {
            if self.filters[pos].is_some() {
                continue;
            }
            let tree_id = self.records[pos].tree;
            let parent_tree = match self.records[pos].parent1 {
                NO_PARENT => None,
                p => Some(self.records[p as usize].tree),
            };
            if parent_tree == Some(tree_id) {
                // Identical root trees: provably empty diff, no decode.
                self.filters[pos] = Some(bloom_bytes(&HashSet::new(), self.bloom_k));
                continue;
            }
            let Some(new_tree) = memo_tree(&mut memo, &mut fetch, tree_id) else {
                continue;
            };
            let old_tree = match parent_tree {
                Some(t) => match memo_tree(&mut memo, &mut fetch, t) {
                    Some(t) => Some(t),
                    None => continue,
                },
                None => None,
            };
            let mut paths = HashSet::new();
            if diff_changed_paths(
                old_tree.as_deref(),
                Some(&new_tree),
                "",
                &mut paths,
                &mut memo,
                &mut fetch,
            ) {
                self.filters[pos] = Some(bloom_bytes(&paths, self.bloom_k));
            }
        }
    }
}

/// The double-hash pair for a Bloom path: two 64-bit FNV-1a streams
/// over the same bytes from different offset bases, the second forced
/// odd so `h1 + i·h2` cycles through all bit positions.
fn bloom_hashes(bytes: &[u8]) -> (u64, u64) {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_ALT_OFFSET: u64 = 0x6c62_272e_07bb_0142;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h1 = FNV_OFFSET;
    let mut h2 = FNV_ALT_OFFSET;
    for &b in bytes {
        h1 = (h1 ^ b as u64).wrapping_mul(FNV_PRIME);
        h2 = (h2 ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    (h1, h2 | 1)
}

/// Encodes a changed-path set as filter bytes: ~10 bits per path, at
/// least one byte (so an empty set is a single zero byte that answers
/// "No" to everything, distinct from the zero-length "no filter").
fn bloom_bytes(paths: &HashSet<String>, k: u32) -> Box<[u8]> {
    let nbytes = (paths.len() * BLOOM_BITS_PER_PATH).div_ceil(8).max(1);
    let mut filter = vec![0u8; nbytes];
    let nbits = (nbytes * 8) as u64;
    for path in paths {
        let (h1, h2) = bloom_hashes(path.as_bytes());
        for i in 0..k as u64 {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2)) % nbits) as usize;
            filter[bit / 8] |= 1 << (bit % 8);
        }
    }
    filter.into_boxed_slice()
}

/// Fetches and memoizes a decoded tree (`None` is memoized too, so a
/// missing tree is only chased once).
fn memo_tree<F: FnMut(ObjectId) -> Option<Tree>>(
    memo: &mut HashMap<ObjectId, Option<Rc<Tree>>>,
    fetch: &mut F,
    id: ObjectId,
) -> Option<Rc<Tree>> {
    memo.entry(id)
        .or_insert_with(|| fetch(id).map(Rc::new))
        .clone()
}

/// Recursively collects every path that differs between `old` and `new`
/// (including the changed paths' directories — each differing subtree
/// entry is itself pushed before recursing) into `paths`. Returns
/// `false` when a needed subtree cannot be fetched or the path count
/// exceeds [`MAX_BLOOM_PATHS`] — the caller then stores no filter.
fn diff_changed_paths<F: FnMut(ObjectId) -> Option<Tree>>(
    old: Option<&Tree>,
    new: Option<&Tree>,
    prefix: &str,
    paths: &mut HashSet<String>,
    memo: &mut HashMap<ObjectId, Option<Rc<Tree>>>,
    fetch: &mut F,
) -> bool {
    let mut names: Vec<&str> = old
        .into_iter()
        .chain(new)
        .flat_map(|t| t.iter().map(|(n, _)| n))
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let old_entry = old.and_then(|t| t.get(name)).copied();
        let new_entry = new.and_then(|t| t.get(name)).copied();
        if old_entry == new_entry {
            continue;
        }
        let path = if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}/{name}")
        };
        paths.insert(path.clone());
        if paths.len() > MAX_BLOOM_PATHS {
            return false;
        }
        let sub = |entry: Option<TreeEntry>,
                   memo: &mut HashMap<ObjectId, Option<Rc<Tree>>>,
                   fetch: &mut F| {
            match entry {
                Some(e) if e.mode == EntryMode::Dir => match memo_tree(memo, fetch, e.id) {
                    Some(t) => Ok(Some(t)),
                    None => Err(()),
                },
                _ => Ok(None),
            }
        };
        let Ok(old_sub) = sub(old_entry, memo, fetch) else {
            return false;
        };
        let Ok(new_sub) = sub(new_entry, memo, fetch) else {
            return false;
        };
        if (old_sub.is_some() || new_sub.is_some())
            && !diff_changed_paths(
                old_sub.as_deref(),
                new_sub.as_deref(),
                &path,
                paths,
                memo,
                fetch,
            )
        {
            return false;
        }
    }
    true
}

/// Walks commits reachable from `tips` (skipping ids already in `seen`),
/// decoding each exactly once and appending a [`GraphEntry`] per commit.
fn collect_entries<S: ObjectStore + ?Sized>(
    store: &S,
    tips: &[ObjectId],
    seen: &mut HashSet<ObjectId>,
    entries: &mut Vec<GraphEntry>,
) -> Result<()> {
    let mut stack: Vec<ObjectId> = tips.to_vec();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let obj = store.commit_ref(id)?;
        let c = obj.as_commit().expect("checked kind");
        entries.push(GraphEntry {
            id,
            tree: c.tree,
            timestamp: c.author.timestamp,
            parents: c.parents.clone(),
        });
        stack.extend(c.parents.iter().copied());
    }
    Ok(())
}

fn fanout_of(sorted_ids: &[ObjectId]) -> [u32; 256] {
    let mut fanout = [0u32; 256];
    for id in sorted_ids {
        fanout[id.0[0] as usize] += 1;
    }
    for i in 1..256 {
        fanout[i] += fanout[i - 1];
    }
    fanout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Commit, Object, Signature, Tree};
    use crate::store::Odb;

    fn mk(odb: &mut Odb, msg: &str, ts: i64, parents: Vec<ObjectId>) -> ObjectId {
        let tree = odb.put(Object::Tree(Tree::new()));
        odb.put(Object::Commit(Commit {
            tree,
            parents,
            author: Signature::new("t", "t@t", ts),
            message: msg.into(),
        }))
    }

    /// base ── x ── left ; right = merge(x, base) — plus an octopus.
    fn sample() -> (Odb, Vec<ObjectId>) {
        let mut odb = Odb::new();
        let base = mk(&mut odb, "base", 1, vec![]);
        let x = mk(&mut odb, "x", 2, vec![base]);
        let left = mk(&mut odb, "left", 3, vec![x]);
        let right = mk(&mut odb, "right", 4, vec![x, base]);
        let octo = mk(&mut odb, "octo", 5, vec![left, right, base]);
        (odb, vec![base, x, left, right, octo])
    }

    #[test]
    fn build_records_fields_and_generations() {
        let (odb, c) = sample();
        let g = CommitGraph::build(&odb, &[c[4]]).unwrap();
        assert_eq!(g.len(), 5);
        for (i, expect_gen) in [(0usize, 0u32), (1, 1), (2, 2), (3, 2), (4, 3)] {
            let pos = g.lookup(c[i]).unwrap();
            assert_eq!(g.generation_of(pos), expect_gen, "commit {i}");
            assert_eq!(g.timestamp_of(pos), i as i64 + 1);
            assert_eq!(g.tree_of(pos), odb.commit(c[i]).unwrap().tree);
            let parent_ids: Vec<ObjectId> =
                g.parents_of(pos).into_iter().map(|p| g.id_at(p)).collect();
            assert_eq!(parent_ids, odb.commit(c[i]).unwrap().parents, "commit {i}");
        }
        assert!(!g.contains(ObjectId::hash_bytes(b"absent")));
    }

    #[test]
    fn encode_parse_round_trips() {
        let (odb, c) = sample();
        let g = CommitGraph::build(&odb, &[c[4]]).unwrap();
        let bytes = g.encode();
        let parsed = CommitGraph::parse(&bytes).unwrap();
        assert_eq!(parsed.ids, g.ids);
        assert_eq!(parsed.edges, g.edges);
        for pos in 0..g.len() as u32 {
            assert_eq!(parsed.parents_of(pos), g.parents_of(pos));
            assert_eq!(parsed.generation_of(pos), g.generation_of(pos));
            assert_eq!(parsed.timestamp_of(pos), g.timestamp_of(pos));
            assert_eq!(parsed.tree_of(pos), g.tree_of(pos));
        }
        // And the encoding is deterministic.
        assert_eq!(parsed.encode(), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        let (odb, c) = sample();
        let bytes = CommitGraph::build(&odb, &[c[4]]).unwrap().encode();
        // Any flipped byte breaks the trailer.
        for at in [0, 9, HEADER_LEN + 100, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0xff;
            assert!(
                matches!(CommitGraph::parse(&bad), Err(GitError::Corrupt(_))),
                "flip at {at}"
            );
        }
        // Truncation too.
        assert!(matches!(
            CommitGraph::parse(&bytes[..bytes.len() - 3]),
            Err(GitError::Corrupt(_))
        ));
        assert!(matches!(CommitGraph::parse(&[]), Err(GitError::Corrupt(_))));
    }

    #[test]
    fn from_entries_rejects_missing_parents_and_cycles() {
        let missing = GraphEntry {
            id: ObjectId::hash_bytes(b"a"),
            tree: ObjectId::ZERO,
            timestamp: 1,
            parents: vec![ObjectId::hash_bytes(b"ghost")],
        };
        assert!(matches!(
            CommitGraph::from_entries(vec![missing]),
            Err(GitError::ObjectNotFound(_))
        ));
        let a = ObjectId::hash_bytes(b"a");
        let b = ObjectId::hash_bytes(b"b");
        let cycle = vec![
            GraphEntry {
                id: a,
                tree: ObjectId::ZERO,
                timestamp: 1,
                parents: vec![b],
            },
            GraphEntry {
                id: b,
                tree: ObjectId::ZERO,
                timestamp: 2,
                parents: vec![a],
            },
        ];
        assert!(matches!(
            CommitGraph::from_entries(cycle),
            Err(GitError::Corrupt(_))
        ));
    }

    #[test]
    fn log_matches_decode_walk() {
        let (odb, c) = sample();
        let g = CommitGraph::build(&odb, &[c[4]]).unwrap();
        let repo = crate::Repository::init_with("t", Box::new(odb));
        for &tip in &c {
            assert_eq!(
                g.log_take(g.lookup(tip).unwrap(), usize::MAX),
                (repo.log(tip).unwrap(), false),
                "log from {tip:?}"
            );
        }
    }

    #[test]
    fn merge_base_and_reachability_match_reference() {
        let (odb, c) = sample();
        let g = CommitGraph::build(&odb, &[c[4]]).unwrap();
        for &x in &c {
            for &y in &c {
                let px = g.lookup(x).unwrap();
                let py = g.lookup(y).unwrap();
                assert_eq!(
                    g.merge_base(px, py),
                    crate::merge_base(&odb, x, y).unwrap(),
                    "merge_base({x:?}, {y:?})"
                );
                let reference = crate::mergebase::ancestor_set(&odb, y)
                    .unwrap()
                    .contains(&x);
                assert_eq!(
                    g.is_ancestor(px, py),
                    reference,
                    "is_ancestor({x:?}, {y:?})"
                );
            }
        }
        assert_eq!(
            g.ancestor_set(g.lookup(c[3]).unwrap()),
            crate::mergebase::ancestor_set(&odb, c[3]).unwrap()
        );
    }

    #[test]
    fn first_parent_chain_follows_parent1() {
        let (odb, c) = sample();
        let g = CommitGraph::build(&odb, &[c[4]]).unwrap();
        // octo → left → x → base (first parents only).
        assert_eq!(
            g.first_parent_chain(g.lookup(c[4]).unwrap()),
            vec![c[4], c[2], c[1], c[0]]
        );
    }

    #[test]
    fn extend_reuses_old_records_and_adds_new_commits() {
        let (mut odb, c) = sample();
        let g = CommitGraph::build(&odb, &[c[4]]).unwrap();
        let newer = mk(&mut odb, "newer", 6, vec![c[4]]);
        assert!(!g.contains(newer));
        let extended = g.extend(&odb, &[newer]).unwrap();
        assert_eq!(extended.len(), 6);
        let pos = extended.lookup(newer).unwrap();
        assert_eq!(extended.generation_of(pos), 4);
        assert_eq!(
            extended
                .parents_of(pos)
                .into_iter()
                .map(|p| extended.id_at(p))
                .collect::<Vec<_>>(),
            vec![c[4]]
        );
        // Old commits kept their data.
        for &old in &c {
            let p = extended.lookup(old).unwrap();
            let q = g.lookup(old).unwrap();
            assert_eq!(extended.generation_of(p), g.generation_of(q));
            assert_eq!(extended.timestamp_of(p), g.timestamp_of(q));
        }
    }

    #[test]
    fn unrelated_histories_have_no_merge_base() {
        let mut odb = Odb::new();
        let a = mk(&mut odb, "a", 1, vec![]);
        let b = mk(&mut odb, "b", 2, vec![]);
        let g = CommitGraph::build(&odb, &[a, b]).unwrap();
        assert_eq!(
            g.merge_base(g.lookup(a).unwrap(), g.lookup(b).unwrap()),
            None
        );
        assert!(!g.is_ancestor(g.lookup(a).unwrap(), g.lookup(b).unwrap()));
    }

    #[test]
    fn deep_history_does_not_overflow_stack() {
        let mut odb = Odb::new();
        let mut tip = mk(&mut odb, "0", 0, vec![]);
        for i in 1..5000 {
            tip = mk(&mut odb, &i.to_string(), i, vec![tip]);
        }
        let g = CommitGraph::build(&odb, &[tip]).unwrap();
        let pos = g.lookup(tip).unwrap();
        assert_eq!(g.generation_of(pos), 4999);
        assert_eq!(g.log_take(pos, usize::MAX).0.len(), 5000);
        assert_eq!(g.first_parent_chain(pos).len(), 5000);
    }

    // ----- changed-path Bloom filters -----------------------------------

    fn pathset(items: &[&str]) -> HashSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    /// A sample graph with a mixed filter population: a real change set,
    /// an empty change set, and uncovered commits.
    fn bloomed_sample() -> CommitGraph {
        let (odb, c) = sample();
        let mut g = CommitGraph::build(&odb, &[c[4]]).unwrap();
        g.filters[0] = Some(bloom_bytes(&pathset(&["src/a.rs", "src"]), BLOOM_K));
        g.filters[2] = Some(bloom_bytes(&pathset(&[]), BLOOM_K));
        g
    }

    #[test]
    fn bloom_chunk_round_trips_and_absence_keeps_version_1() {
        let (odb, c) = sample();
        let plain = CommitGraph::build(&odb, &[c[4]]).unwrap();
        let v1 = plain.encode();
        assert_eq!(&v1[4..8], &GRAPH_VERSION.to_be_bytes());

        let g = bloomed_sample();
        let v2 = g.encode();
        assert_eq!(&v2[4..8], &GRAPH_VERSION_BLOOM.to_be_bytes());
        let parsed = CommitGraph::parse(&v2).unwrap();
        assert_eq!(parsed.filters, g.filters);
        assert_eq!(parsed.bloom_coverage(), 2);
        assert_eq!(parsed.encode(), v2, "version 2 re-encodes identically");

        // Filter semantics survive the round trip: a covered path is
        // Maybe, an unknown one is No, an uncovered commit is Absent,
        // and the empty change set answers No for everything.
        assert_eq!(parsed.path_changed(0, "src/a.rs"), PathChange::Maybe);
        assert_eq!(
            parsed.path_changed(0, "definitely/not/here.txt"),
            PathChange::No
        );
        assert_eq!(parsed.path_changed(1, "src/a.rs"), PathChange::Absent);
        assert_eq!(parsed.path_changed(2, "src/a.rs"), PathChange::No);

        // Stripping the filters falls back to the version-1 bytes.
        let mut stripped = parsed;
        stripped.strip_blooms();
        assert_eq!(stripped.encode(), v1);
    }

    #[test]
    fn bloom_chunk_corruption_is_detected() {
        let mut g = bloomed_sample();
        // A trailing filter too, so the cumulative total can be tampered
        // below the data length without tripping the monotone check.
        g.filters[4] = Some(bloom_bytes(&pathset(&["x"]), BLOOM_K));
        let bytes = g.encode();
        let chunk_at = {
            let mut s = g.clone();
            s.strip_blooms();
            s.encode().len() - TRAILER_LEN
        };
        // Any flipped byte in the chunk breaks the trailer.
        for at in [chunk_at, chunk_at + 9, bytes.len() - TRAILER_LEN - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0xff;
            assert!(
                matches!(CommitGraph::parse(&bad), Err(GitError::Corrupt(_))),
                "flip at {at}"
            );
        }
        // Structural tampers with a recomputed trailer are still refused.
        let refit = |mut b: Vec<u8>| {
            let n = b.len() - TRAILER_LEN;
            let t = ObjectId::hash_bytes(&b[..n]);
            b[n..].copy_from_slice(&t.0);
            b
        };
        let tamper = |at: usize, word: u32| {
            let mut b = bytes.clone();
            b[at..at + 4].copy_from_slice(&word.to_be_bytes());
            CommitGraph::parse(&refit(b)).unwrap_err().to_string()
        };
        assert!(tamper(chunk_at, 0).contains("hash count"));
        assert!(tamper(chunk_at + 8, 10_000).contains("not monotone"));
        // Shrinking the final cumulative offset leaves data unclaimed.
        let last_offset_at = chunk_at + 8 + (g.len() - 1) * 4;
        assert!(tamper(last_offset_at, 4).contains("disagrees with offsets"));
        // Growing the declared data length changes the expected size.
        assert!(tamper(chunk_at + 4, 1_000).contains("size mismatch"));
    }

    #[test]
    fn extend_carries_filters_and_compute_blooms_fills_gaps() {
        let (mut odb, c) = sample();
        let mut g = CommitGraph::build(&odb, &[c[4]]).unwrap();
        // All sample commits share the same empty tree, so every filter
        // is the empty change set; that is still coverage.
        {
            let odb = &odb;
            g.compute_blooms(|tree_id| odb.tree(tree_id).ok());
        }
        assert_eq!(g.bloom_coverage(), g.len());

        let extra = mk(&mut odb, "extra", 9, vec![c[4]]);
        let mut extended = g.extend(&odb, &[extra]).unwrap();
        assert_eq!(extended.len(), 6);
        // Old filters rode along by id; only the new commit is uncovered.
        assert_eq!(extended.bloom_coverage(), 5);
        let new_pos = extended.lookup(extra).unwrap();
        assert_eq!(extended.filters[new_pos as usize], None);
        // Backfill touches only the gap.
        {
            let odb = &odb;
            extended.compute_blooms(|tree_id| odb.tree(tree_id).ok());
        }
        assert_eq!(extended.bloom_coverage(), 6);
    }
}
