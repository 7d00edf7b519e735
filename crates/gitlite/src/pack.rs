//! Packfiles: many objects per file, plus a sorted fanout index.
//!
//! Loose `objects/ab/cdef...` storage pays one inode and one file open per
//! object, which dominates cold-start object loading — and citation
//! resolution walks commit/tree history on every lookup, so cold loads are
//! on the hot path for both the local tool and the hub. A *pack*
//! consolidates a whole object set into two files:
//!
//! * **`pack-<checksum>.pack`** — the objects themselves, as
//!   length-prefixed records of canonical bytes, framed by a header and a
//!   SHA-1 trailer over everything before it:
//!
//!   ```text
//!   "GLPK" | u32 version | u32 count
//!   count × ( 20-byte id | u32 len | record payload )
//!   20-byte SHA-1 trailer
//!   ```
//!
//!   Version 1 packs hold only **full records**: the payload is the
//!   object's canonical bytes and `len` is their length. Version 2 packs
//!   may additionally hold **delta records** (git's pack-delta design):
//!   the high bit of `len` is the delta flag, the low 31 bits the payload
//!   length, and the payload is
//!
//!   ```text
//!   20-byte base id | u32 target_len | ops…
//!   op = 0x01 | u32 base_offset | u32 len      (copy from resolved base)
//!      | 0x02 | u32 len | len literal bytes    (insert)
//!   ```
//!
//!   A delta's base must be another record *in the same pack*, chains are
//!   capped at [`MAX_DELTA_DEPTH`], and both properties (plus acyclicity)
//!   are validated at parse time, so a crafted file cannot loop or recurse
//!   a reader. A pack with no delta records encodes as version 1,
//!   byte-identical to the pre-delta format.
//!
//!   Records are verified as they are read, not when the pack opens: a
//!   full record's bytes, and a delta's reconstructed bytes, are
//!   re-hashed against the record id before they are served. A damaged
//!   or malicious record reads as [`GitError::Corrupt`] naming its id,
//!   never as a wrong answer, and a reader hashes only what it reads.
//!
//! * **`pack-<checksum>.idx`** — the lookup structure: a 256-entry fanout
//!   table (cumulative counts by leading id byte) over the sorted id list,
//!   parallel byte offsets into the pack, the pack's trailer checksum (so
//!   an index can never be paired with the wrong pack), and its own SHA-1
//!   trailer:
//!
//!   ```text
//!   "GLIX" | u32 version | u32 count
//!   256 × u32 cumulative fanout
//!   count × 20-byte id (sorted ascending)
//!   count × u64 record offset
//!   20-byte pack checksum | 20-byte SHA-1 trailer
//!   ```
//!
//! Lookup is O(log n): the fanout narrows an id to its leading-byte bucket,
//! then a binary search over that bucket finds the offset. All integers are
//! big-endian. `<checksum>` in the file names is the pack trailer in hex,
//! so pack names are content addresses too.
//!
//! [`PackStore`] is the [`ObjectStore`] backend over this format: each
//! pack is checked at open on one sequential read of its file, then read
//! in place, one positioned read per record (no per-object file opens,
//! no pack body kept in memory, each record hashed as it is served),
//! while new writes overflow into a loose [`DiskStore`] area sharing the
//! same root directory (packs live under `<root>/pack/`, loose objects
//! under `<root>/ab/...`, so a `PackStore` opens any existing
//! loose-object directory unchanged). An empty store handed a whole
//! object set ([`ObjectStore::put_raw_all`], a new repository's import)
//! streams it to disk as one delta-free pack plus a commit-graph.
//! [`PackStore::repack`] and [`PackStore::gc`] consolidate the overflow
//! back into a single fresh pack — `gc` additionally drops objects not
//! reachable from the given roots. Both also write the third sidecar
//! file, `pack/commit-graph.glcg` ([`crate::graph`]): a
//! generation-numbered index of the surviving commit history that serves
//! `log`/`merge_base`/reachability walks without decoding a single
//! commit, with changed-path Bloom filters. After a `gc`, a store
//! therefore holds exactly `pack + idx + graph`.

use crate::codec::decode_object;
use crate::error::{GitError, Result};
use crate::graph::{CommitGraph, GraphEntry, GRAPH_FILE};
use crate::hash::ObjectId;
use crate::object::Object;
use crate::store::{verify_claimed_id, DiskStore, ObjectStore};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Magic bytes opening every pack file.
pub const PACK_MAGIC: &[u8; 4] = b"GLPK";
/// Magic bytes opening every pack index file.
pub const INDEX_MAGIC: &[u8; 4] = b"GLIX";
/// Version of a pack holding only full records (and of the `.idx`
/// format, which is unchanged by deltas).
pub const PACK_VERSION: u32 = 1;
/// Version of a pack holding at least one delta record.
pub const PACK_VERSION_DELTA: u32 = 2;
/// Longest allowed delta chain (full base → … → deepest delta).
pub const MAX_DELTA_DEPTH: u32 = 16;
/// Subdirectory of a [`PackStore`] root holding `*.pack` / `*.idx` files.
pub const PACK_DIR: &str = "pack";

const HEADER_LEN: usize = 12; // magic + version + count
const TRAILER_LEN: usize = 20; // SHA-1
const RECORD_PREFIX: usize = 24; // 20-byte id + u32 len
const DELTA_FLAG: u32 = 0x8000_0000; // high bit of a record's len word
const LEN_MASK: u32 = !DELTA_FLAG;
const DELTA_PREFIX: usize = 24; // 20-byte base id + u32 target_len
const OP_COPY: u8 = 0x01;
const OP_INSERT: u8 = 0x02;
/// Matching granularity of the delta encoder (bytes).
const DELTA_BLOCK: usize = 16;
/// Candidates tried per object when planning deltas at repack time.
const DELTA_WINDOW: usize = 8;
/// Resolved-bytes cache budget per pack; the cache is cleared wholesale
/// when it would overflow (chain walks re-warm it immediately).
const DELTA_CACHE_BYTES: usize = 8 << 20;

/// A pack plus its index, encoded and ready to hit disk.
#[derive(Debug, Clone)]
pub struct EncodedPack {
    /// The `.pack` file bytes.
    pub pack: Vec<u8>,
    /// The `.idx` file bytes.
    pub index: Vec<u8>,
    /// The pack's trailer checksum — also its file-name stem
    /// (`pack-<checksum>`).
    pub checksum: ObjectId,
    /// How many records were written as deltas (0 for [`encode_pack`]).
    pub delta_objects: usize,
}

/// Encodes `objects` (id + canonical bytes) into a pack and its index,
/// every record stored full.
///
/// Records are sorted by id and deduplicated, so the same object set
/// always encodes to byte-identical files regardless of insertion order —
/// pack files are content addresses of their object sets.
pub fn encode_pack(objects: Vec<(ObjectId, Vec<u8>)>) -> EncodedPack {
    encode_with_plan(normalize(objects), &HashMap::new())
}

/// Like [`encode_pack`], but stores similar objects as delta records.
///
/// Candidates are sorted by (object kind, tree-entry name hint, size
/// descending) so successive versions of the same path land next to each
/// other, then each object tries a delta against a sliding window of
/// `DELTA_WINDOW` predecessors, keeping the smallest that saves at
/// least a quarter of the full size and stays under [`MAX_DELTA_DEPTH`].
/// Bases always precede their deltas in the candidate order, so chains
/// are acyclic by construction. The plan is a pure function of the
/// object set: deltified packs are content addresses too, and a set that
/// yields no profitable delta encodes byte-identically to
/// [`encode_pack`].
pub fn encode_pack_deltified(objects: Vec<(ObjectId, Vec<u8>)>) -> EncodedPack {
    let objects = normalize(objects);
    let plan = plan_deltas(&objects);
    encode_with_plan(objects, &plan)
}

fn normalize(mut objects: Vec<(ObjectId, Vec<u8>)>) -> Vec<(ObjectId, Vec<u8>)> {
    objects.sort_by_key(|entry| entry.0);
    objects.dedup_by(|a, b| a.0 == b.0);
    objects
}

fn encode_with_plan(
    objects: Vec<(ObjectId, Vec<u8>)>,
    plan: &HashMap<ObjectId, (ObjectId, Vec<u8>)>,
) -> EncodedPack {
    let delta_objects = objects
        .iter()
        .filter(|(id, _)| plan.contains_key(id))
        .count();
    let version = if delta_objects == 0 {
        PACK_VERSION
    } else {
        PACK_VERSION_DELTA
    };
    let capacity = HEADER_LEN
        + TRAILER_LEN
        + objects
            .iter()
            .map(|(_, b)| RECORD_PREFIX + b.len())
            .sum::<usize>();
    let write = || -> std::io::Result<(Vec<u8>, Written)> {
        let mut pack = PackWriter::new(Vec::with_capacity(capacity), version, objects.len())?;
        for (id, bytes) in &objects {
            match plan.get(id) {
                Some((base, delta)) => pack.delta(*id, *base, delta)?,
                None => pack.full(*id, bytes)?,
            }
        }
        pack.finish()
    };
    let (pack, written) = write().expect("writing to a Vec cannot fail");
    let index = encode_index(&written.ids, &written.offsets, written.checksum);
    EncodedPack {
        pack,
        index,
        checksum: written.checksum,
        delta_objects,
    }
}

/// The one writer of the GLPK record format: the header, then records
/// in the order given, each hashed into the trailer as it is written,
/// then the trailer. Into a `Vec` for [`encode_pack`], through a
/// buffered file for [`PackStore`]'s import pack.
struct PackWriter<W: Write> {
    out: W,
    hasher: crate::hash::Sha1,
    at: u64,
    ids: Vec<ObjectId>,
    offsets: Vec<u64>,
    words: Vec<u32>,
}

/// What a [`PackWriter`] wrote: each record's id, offset and length
/// word in write order, the trailer checksum and the pack's size.
struct Written {
    ids: Vec<ObjectId>,
    offsets: Vec<u64>,
    words: Vec<u32>,
    checksum: ObjectId,
    size: u64,
}

impl<W: Write> PackWriter<W> {
    fn new(out: W, version: u32, count: usize) -> std::io::Result<Self> {
        let mut writer = PackWriter {
            out,
            hasher: crate::hash::Sha1::new(),
            at: 0,
            ids: Vec::with_capacity(count),
            offsets: Vec::with_capacity(count),
            words: Vec::with_capacity(count),
        };
        writer.put(PACK_MAGIC)?;
        writer.put(&version.to_be_bytes())?;
        writer.put(&(count as u32).to_be_bytes())?;
        Ok(writer)
    }

    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.hasher.update(bytes);
        self.at += bytes.len() as u64;
        self.out.write_all(bytes)
    }

    fn record(&mut self, id: ObjectId, word: u32, payload: &[&[u8]]) -> std::io::Result<()> {
        self.ids.push(id);
        self.offsets.push(self.at);
        self.words.push(word);
        self.put(&id.0)?;
        self.put(&word.to_be_bytes())?;
        payload.iter().try_for_each(|part| self.put(part))
    }

    /// A full record: the object's canonical bytes.
    fn full(&mut self, id: ObjectId, bytes: &[u8]) -> std::io::Result<()> {
        debug_assert!(
            bytes.len() <= LEN_MASK as usize,
            "pack record lengths are 31 bits; callers must reject larger objects"
        );
        self.record(id, bytes.len() as u32, &[bytes])
    }

    /// A delta record against `base`, another record of the pack.
    fn delta(&mut self, id: ObjectId, base: ObjectId, delta: &[u8]) -> std::io::Result<()> {
        let len = (delta.len() + 20) as u32;
        self.record(id, len | DELTA_FLAG, &[&base.0, delta])
    }

    /// Writes the trailer; returns the sink and what was written.
    fn finish(mut self) -> std::io::Result<(W, Written)> {
        let checksum = ObjectId(self.hasher.finalize());
        self.out.write_all(&checksum.0)?;
        let written = Written {
            ids: self.ids,
            offsets: self.offsets,
            words: self.words,
            checksum,
            size: self.at + TRAILER_LEN as u64,
        };
        Ok((self.out, written))
    }
}

/// Computes a delta turning `base` into `target`: `u32 target_len`
/// followed by copy/insert ops (see the module doc for the wire shape).
/// Returns `None` when no delta saves at least a quarter of the full
/// size — callers then store the object full.
///
/// The encoder indexes `base` in `DELTA_BLOCK`-byte blocks and greedily
/// extends the longest match at each target position; it is deterministic
/// in its inputs, which keeps deltified packs content-addressed.
pub fn compute_delta(base: &[u8], target: &[u8]) -> Option<Vec<u8>> {
    if target.len() < 64 || target.len() > LEN_MASK as usize || base.len() > LEN_MASK as usize {
        return None;
    }
    let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut off = 0;
    while off + DELTA_BLOCK <= base.len() {
        let slots = table
            .entry(block_hash(&base[off..off + DELTA_BLOCK]))
            .or_default();
        if slots.len() < 4 {
            slots.push(off as u32);
        }
        off += DELTA_BLOCK;
    }
    // The record must undercut the full encoding by 25% to be worth a
    // chain link at read time; 20 bytes of base id ride on top of it.
    let budget = target.len() * 3 / 4;
    let mut delta = Vec::with_capacity(64);
    delta.extend_from_slice(&(target.len() as u32).to_be_bytes());
    let mut lit_start = 0;
    let mut i = 0;
    while i + DELTA_BLOCK <= target.len() {
        let mut best: Option<(usize, usize)> = None; // (base offset, match len)
        if let Some(cands) = table.get(&block_hash(&target[i..i + DELTA_BLOCK])) {
            for &cand in cands {
                let cand = cand as usize;
                if base[cand..cand + DELTA_BLOCK] != target[i..i + DELTA_BLOCK] {
                    continue; // hash collision
                }
                let len = common_prefix(&base[cand..], &target[i..]);
                if best.map(|(_, b)| len > b).unwrap_or(true) {
                    best = Some((cand, len));
                }
            }
        }
        if let Some((boff, mlen)) = best {
            push_insert(&mut delta, &target[lit_start..i]);
            delta.push(OP_COPY);
            delta.extend_from_slice(&(boff as u32).to_be_bytes());
            delta.extend_from_slice(&(mlen as u32).to_be_bytes());
            i += mlen;
            lit_start = i;
        } else {
            i += 1;
        }
        if delta.len() + (i - lit_start) + 20 > budget {
            return None;
        }
    }
    push_insert(&mut delta, &target[lit_start..]);
    (delta.len() + 20 <= budget).then_some(delta)
}

/// Applies a delta produced by [`compute_delta`] to its resolved base.
/// Every op is bounds-checked against the base and the declared target
/// length; any malformed op, overrun, or length mismatch is `Corrupt`.
pub fn apply_delta(base: &[u8], delta: &[u8]) -> Result<Vec<u8>> {
    let corrupt = |msg: &str| GitError::Corrupt(format!("pack delta: {msg}"));
    if delta.len() < 4 {
        return Err(corrupt("truncated header"));
    }
    let target_len = u32::from_be_bytes(delta[..4].try_into().unwrap()) as usize;
    let mut out = Vec::new();
    let mut at = 4;
    while at < delta.len() {
        match delta[at] {
            OP_COPY => {
                if at + 9 > delta.len() {
                    return Err(corrupt("truncated copy op"));
                }
                let off = u32::from_be_bytes(delta[at + 1..at + 5].try_into().unwrap()) as usize;
                let len = u32::from_be_bytes(delta[at + 5..at + 9].try_into().unwrap()) as usize;
                if off
                    .checked_add(len)
                    .map(|end| end > base.len())
                    .unwrap_or(true)
                {
                    return Err(corrupt("copy op overruns the base"));
                }
                if out.len() + len > target_len {
                    return Err(corrupt("ops overrun the declared target length"));
                }
                out.extend_from_slice(&base[off..off + len]);
                at += 9;
            }
            OP_INSERT => {
                if at + 5 > delta.len() {
                    return Err(corrupt("truncated insert op"));
                }
                let len = u32::from_be_bytes(delta[at + 1..at + 5].try_into().unwrap()) as usize;
                if at + 5 + len > delta.len() {
                    return Err(corrupt("insert op overruns the delta"));
                }
                if out.len() + len > target_len {
                    return Err(corrupt("ops overrun the declared target length"));
                }
                out.extend_from_slice(&delta[at + 5..at + 5 + len]);
                at += 5 + len;
            }
            op => return Err(corrupt(&format!("unknown op 0x{op:02x}"))),
        }
    }
    if out.len() != target_len {
        return Err(corrupt("ops produce fewer bytes than declared"));
    }
    Ok(out)
}

fn push_insert(delta: &mut Vec<u8>, literal: &[u8]) {
    if literal.is_empty() {
        return;
    }
    delta.push(OP_INSERT);
    delta.extend_from_slice(&(literal.len() as u32).to_be_bytes());
    delta.extend_from_slice(literal);
}

fn block_hash(block: &[u8]) -> u64 {
    // FNV-1a; collisions are harmless (candidates are byte-verified).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in block {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

fn object_kind(bytes: &[u8]) -> u8 {
    if bytes.starts_with(b"commit ") {
        0
    } else if bytes.starts_with(b"tree ") {
        1
    } else {
        2
    }
}

/// Picks (base, delta) pairs for `objects` (pre-sorted by id). See
/// [`encode_pack_deltified`] for the strategy.
fn plan_deltas(objects: &[(ObjectId, Vec<u8>)]) -> HashMap<ObjectId, (ObjectId, Vec<u8>)> {
    // Tree entries name their children: successive versions of one path
    // share a name hint and sort adjacently below.
    let mut hints: HashMap<ObjectId, String> = HashMap::new();
    for (_, bytes) in objects {
        if !bytes.starts_with(b"tree ") {
            continue;
        }
        if let Ok(Object::Tree(tree)) = decode_object(bytes) {
            for (name, entry) in tree.iter() {
                hints.entry(entry.id).or_insert_with(|| name.to_string());
            }
        }
    }
    let mut order: Vec<usize> = (0..objects.len()).collect();
    order.sort_by(|&a, &b| {
        let key = |i: usize| {
            let (id, bytes): &(ObjectId, Vec<u8>) = &objects[i];
            (
                object_kind(bytes),
                hints.get(id).map(String::as_str).unwrap_or(""),
                std::cmp::Reverse(bytes.len()),
                *id,
            )
        };
        key(a).cmp(&key(b))
    });

    let mut plan = HashMap::new();
    let mut depth: HashMap<ObjectId, u32> = HashMap::new();
    let mut window: VecDeque<usize> = VecDeque::with_capacity(DELTA_WINDOW + 1);
    for &i in &order {
        let (id, ref bytes) = objects[i];
        let mut best: Option<(ObjectId, Vec<u8>)> = None;
        for &j in window.iter().rev() {
            let (base_id, ref base_bytes) = objects[j];
            if object_kind(base_bytes) != object_kind(bytes)
                || depth.get(&base_id).copied().unwrap_or(0) + 1 > MAX_DELTA_DEPTH
            {
                continue;
            }
            if let Some(delta) = compute_delta(base_bytes, bytes) {
                if best
                    .as_ref()
                    .map(|(_, b)| delta.len() < b.len())
                    .unwrap_or(true)
                {
                    best = Some((base_id, delta));
                }
            }
        }
        if let Some((base_id, delta)) = best {
            depth.insert(id, depth.get(&base_id).copied().unwrap_or(0) + 1);
            plan.insert(id, (base_id, delta));
        }
        window.push_back(i);
        if window.len() > DELTA_WINDOW {
            window.pop_front();
        }
    }
    plan
}

fn encode_index(ids: &[ObjectId], offsets: &[u64], pack_checksum: ObjectId) -> Vec<u8> {
    let mut fanout = [0u32; 256];
    for id in ids {
        fanout[id.0[0] as usize] += 1;
    }
    for i in 1..256 {
        fanout[i] += fanout[i - 1];
    }
    let mut index =
        Vec::with_capacity(HEADER_LEN + 1024 + ids.len() * 28 + TRAILER_LEN + TRAILER_LEN);
    index.extend_from_slice(INDEX_MAGIC);
    index.extend_from_slice(&PACK_VERSION.to_be_bytes());
    index.extend_from_slice(&(ids.len() as u32).to_be_bytes());
    for f in fanout {
        index.extend_from_slice(&f.to_be_bytes());
    }
    for id in ids {
        index.extend_from_slice(&id.0);
    }
    for off in offsets {
        index.extend_from_slice(&off.to_be_bytes());
    }
    index.extend_from_slice(&pack_checksum.0);
    let trailer = ObjectId::hash_bytes(&index);
    index.extend_from_slice(&trailer.0);
    index
}

/// The parsed lookup structure of one pack: sorted ids, parallel offsets,
/// and the fanout table narrowing binary searches to one leading-byte
/// bucket.
#[derive(Debug, Clone)]
pub struct PackIndex {
    fanout: [u32; 256],
    ids: Vec<ObjectId>,
    offsets: Vec<u64>,
    /// Trailer checksum of the pack this index describes.
    pub pack_checksum: ObjectId,
}

impl PackIndex {
    /// Parses and validates `.idx` bytes: magic, version, structural
    /// sizes, fanout monotonicity, id ordering, and the SHA-1 trailer.
    pub fn parse(bytes: &[u8]) -> Result<PackIndex> {
        let corrupt = |msg: &str| GitError::Corrupt(format!("pack index: {msg}"));
        if bytes.len() < HEADER_LEN + 1024 + TRAILER_LEN + TRAILER_LEN {
            return Err(corrupt("truncated"));
        }
        if &bytes[..4] != INDEX_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        if version != PACK_VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let count = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let expected = HEADER_LEN + 1024 + count * 28 + TRAILER_LEN + TRAILER_LEN;
        if bytes.len() != expected {
            return Err(corrupt(&format!(
                "size mismatch: {} bytes for {count} entries, expected {expected}",
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
        let ids_at = HEADER_LEN + 1024;
        let mut ids = Vec::with_capacity(count);
        for i in 0..count {
            let at = ids_at + i * 20;
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
        let offs_at = ids_at + count * 20;
        let offsets = (0..count)
            .map(|i| {
                let at = offs_at + i * 8;
                u64::from_be_bytes(bytes[at..at + 8].try_into().unwrap())
            })
            .collect();
        let mut pack_checksum = [0u8; 20];
        pack_checksum.copy_from_slice(&bytes[offs_at + count * 8..offs_at + count * 8 + 20]);
        Ok(PackIndex {
            fanout,
            ids,
            offsets,
            pack_checksum: ObjectId(pack_checksum),
        })
    }

    /// Number of objects indexed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the index describes an empty pack.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The indexed ids, ascending.
    pub fn ids(&self) -> &[ObjectId] {
        &self.ids
    }

    /// Byte offset of `id`'s record within the pack, if present: fanout
    /// bucket, then binary search inside it.
    pub fn offset_of(&self, id: ObjectId) -> Option<u64> {
        self.position_of(id).map(|pos| self.offsets[pos])
    }

    /// Position of `id` in [`PackIndex::ids`], if present.
    fn position_of(&self, id: ObjectId) -> Option<usize> {
        let bucket = id.0[0] as usize;
        let lo = if bucket == 0 {
            0
        } else {
            self.fanout[bucket - 1] as usize
        };
        let hi = self.fanout[bucket] as usize;
        let i = self.ids[lo..hi].binary_search(&id).ok()?;
        Some(lo + i)
    }
}

/// Checks a pack's framing — length, magic and version — returning the
/// record count, the stored trailer checksum, and the format version.
/// The trailer is read, not recomputed: records are verified one by one
/// as they are served ([`Pack::read`]).
fn pack_header(data: &[u8]) -> Result<(usize, ObjectId, u32)> {
    let corrupt = |msg: String| GitError::Corrupt(format!("pack file: {msg}"));
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(corrupt("truncated".into()));
    }
    if &data[..4] != PACK_MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let version = u32::from_be_bytes(data[4..8].try_into().unwrap());
    if version != PACK_VERSION && version != PACK_VERSION_DELTA {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let mut trailer = [0u8; 20];
    trailer.copy_from_slice(&data[data.len() - TRAILER_LEN..]);
    let count = u32::from_be_bytes(data[8..12].try_into().unwrap()) as usize;
    Ok((count, ObjectId(trailer), version))
}

/// Validates `.pack` bytes (magic, version, and the SHA-1 trailer over
/// the whole body) and rebuilds a [`PackIndex`] by scanning its records
/// — the recovery path for a pack whose `.idx` file is missing or
/// damaged, where the scan has nothing else to trust.
pub fn index_pack(data: &[u8]) -> Result<PackIndex> {
    let corrupt = |msg: String| GitError::Corrupt(format!("pack file: {msg}"));
    let (count, checksum, version) = pack_header(data)?;
    if ObjectId::hash_bytes(&data[..data.len() - TRAILER_LEN]) != checksum {
        return Err(corrupt("trailer checksum mismatch".into()));
    }
    let body = &data[..data.len() - TRAILER_LEN];
    let mut entries = Vec::with_capacity(count);
    let mut at = HEADER_LEN;
    for i in 0..count {
        if at + RECORD_PREFIX > body.len() {
            return Err(corrupt(format!("record {i} truncated")));
        }
        let mut id = [0u8; 20];
        id.copy_from_slice(&data[at..at + 20]);
        let word = u32::from_be_bytes(data[at + 20..at + 24].try_into().unwrap());
        if word & DELTA_FLAG != 0 && version < PACK_VERSION_DELTA {
            return Err(corrupt(format!(
                "record {i} is a delta in a version-1 pack"
            )));
        }
        let len = (word & LEN_MASK) as usize;
        if at + RECORD_PREFIX + len > body.len() {
            return Err(corrupt(format!("record {i} body truncated")));
        }
        entries.push((ObjectId(id), at as u64));
        at += RECORD_PREFIX + len;
    }
    if at != body.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last record",
            body.len() - at
        )));
    }
    entries.sort_by_key(|entry| entry.0);
    if entries.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(corrupt("duplicate object id".into()));
    }
    let ids: Vec<ObjectId> = entries.iter().map(|(id, _)| *id).collect();
    let offsets: Vec<u64> = entries.iter().map(|(_, off)| *off).collect();
    Ok(PackIndex {
        fanout: fanout_of(&ids),
        ids,
        offsets,
        pack_checksum: checksum,
    })
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

/// One opened pack: where its bytes are read from, the parsed index with
/// each record's length word, and a bounded cache of resolved delta
/// targets (chain walks hit the cache for shared prefixes instead of
/// re-applying every link).
pub struct Pack {
    body: Body,
    index: PackIndex,
    /// Each record's length word (delta flag and payload length), by
    /// index position: what a positioned read needs besides the offset.
    words: Vec<u32>,
    /// Each delta record's base, by index position, as parsing proved
    /// the chains: a read follows these links, so a record changed on
    /// disk after open can fail its checks but never lead a read off
    /// the validated chains.
    bases: HashMap<u32, u32>,
    /// Bytes in the whole pack, trailer included.
    size: u64,
    path: PathBuf,
    cache: Mutex<DeltaCache>,
}

/// Where a pack's bytes live. A pack a [`PackStore`] opens or writes is
/// read in place, one positioned read per record, so a store's memory
/// grows with its indexes and not with its history; a pack parsed from
/// bytes ([`Pack::parse`]) keeps them.
enum Body {
    File(fs::File),
    Bytes(Vec<u8>),
}

impl Body {
    /// `len` bytes at `off`; parsing has bounds-checked every record.
    fn read_at(&self, off: u64, len: usize) -> Result<Cow<'_, [u8]>> {
        match self {
            Body::Bytes(data) => Ok(Cow::Borrowed(&data[off as usize..off as usize + len])),
            Body::File(file) => {
                let mut buf = vec![0u8; len];
                file.read_exact_at(&mut buf, off)?;
                Ok(Cow::Owned(buf))
            }
        }
    }
}

#[derive(Default)]
struct DeltaCache {
    map: HashMap<ObjectId, Vec<u8>>,
    bytes: usize,
}

impl fmt::Debug for Pack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pack")
            .field("path", &self.path)
            .field("objects", &self.index.len())
            .field("deltas", &self.bases.len())
            .field("bytes", &self.size)
            .finish()
    }
}

impl Pack {
    /// Opens pack bytes with an optional pre-built index. With `idx`
    /// bytes, the pack's header is checked, its stored trailer must equal
    /// the checksum the index recorded (so an index is never paired with
    /// another pack), and every indexed offset is cheaply bounds- and
    /// identity-checked (the id at the offset must match the indexed id)
    /// — no record walk, re-sort or hash over the body, which is what the
    /// `.idx` file buys over rescanning. Without `idx`, the trailer is
    /// verified over the whole body and the index is rebuilt by scanning
    /// the records ([`index_pack`]). Either way, delta records are then
    /// structurally validated: every base must be a record of this pack,
    /// chains must be acyclic and no deeper than [`MAX_DELTA_DEPTH`] — a
    /// crafted file fails here instead of looping a reader.
    ///
    /// Record bytes themselves are verified as they are read
    /// ([`Pack::read`]), so opening costs the same whether a command
    /// then reads one object or all of them. The pack keeps `data`; a
    /// [`PackStore`] opens its packs with [`Pack::open`] instead.
    pub fn parse(data: Vec<u8>, idx: Option<&[u8]>, path: PathBuf) -> Result<Pack> {
        let checked = check_pack(&data, idx)?;
        Ok(Pack::new(Body::Bytes(data), checked, path))
    }

    /// [`Pack::parse`] over the file at `path`: the same checks, made on
    /// one sequential read of the file, after which the bytes are dropped
    /// and records are read in place.
    pub fn open(path: &Path, idx: Option<&[u8]>) -> Result<Pack> {
        let mut file = fs::File::open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let checked = check_pack(&data, idx)?;
        Ok(Pack::new(Body::File(file), checked, path.to_path_buf()))
    }

    fn new(body: Body, checked: CheckedPack, path: PathBuf) -> Pack {
        Pack {
            body,
            index: checked.index,
            words: checked.words,
            bases: checked.bases,
            size: checked.size,
            path,
            cache: Mutex::new(DeltaCache::default()),
        }
    }

    /// This pack with its bytes in memory, for a pass that reads every
    /// record (a gc reads each delta chain link once per target, and a
    /// buffer serves those links without a read each). The bytes come
    /// through this pack's own handle, so they are the file it opened.
    fn buffered(&self) -> Result<Pack> {
        let data = match &self.body {
            Body::Bytes(data) => data.clone(),
            Body::File(_) => self.body.read_at(0, self.size as usize)?.into_owned(),
        };
        let checked = CheckedPack {
            index: self.index.clone(),
            words: self.words.clone(),
            bases: self.bases.clone(),
            size: self.size,
        };
        Ok(Pack::new(Body::Bytes(data), checked, self.path.clone()))
    }

    /// The parsed index.
    pub fn index(&self) -> &PackIndex {
        &self.index
    }

    /// The pack's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records stored as deltas in this pack.
    pub fn delta_objects(&self) -> usize {
        self.bases.len()
    }

    /// The record at index position `pos`: whether it is a delta, and
    /// its payload.
    fn record_at(&self, pos: usize) -> Result<(bool, Cow<'_, [u8]>)> {
        let word = self.words[pos];
        let payload = self.body.read_at(
            self.index.offsets[pos] + RECORD_PREFIX as u64,
            (word & LEN_MASK) as usize,
        )?;
        Ok((word & DELTA_FLAG != 0, payload))
    }

    /// The canonical bytes of `id`, or `Ok(None)` when this pack does
    /// not hold it. A full record is one read of its payload; a delta
    /// record is resolved by walking its base chain (cached). Either way
    /// the bytes are re-hashed against their id before they are served:
    /// a record whose bytes do not hash to its id — or a delta that does
    /// not apply — is [`GitError::Corrupt`], never wrong bytes.
    pub fn read(&self, id: ObjectId) -> Result<Option<Cow<'_, [u8]>>> {
        let Some(pos) = self.index.position_of(id) else {
            return Ok(None);
        };
        let (is_delta, payload) = self.record_at(pos)?;
        if !is_delta {
            self.verify(id, &payload)?;
            return Ok(Some(payload));
        }
        self.resolve(pos).map(|bytes| Some(Cow::Owned(bytes)))
    }

    /// [`Pack::read`] without the reason: the canonical bytes of `id`,
    /// or `None` when the pack does not hold it *or* its bytes fail
    /// verification.
    pub fn raw(&self, id: ObjectId) -> Option<Cow<'_, [u8]>> {
        self.read(id).ok().flatten()
    }

    /// Checks that `bytes`, served as record `id`, hash to `id`.
    fn verify(&self, id: ObjectId, bytes: &[u8]) -> Result<()> {
        let actual = ObjectId::hash_bytes(bytes);
        if actual != id {
            return Err(GitError::Corrupt(format!(
                "packed object {} holds bytes hashing to {}",
                id.short(),
                actual.short()
            )));
        }
        Ok(())
    }

    /// The canonical bytes of the delta record at index position `pos`.
    fn resolve(&self, mut pos: usize) -> Result<Vec<u8>> {
        // Walk up the chain until a full record or a cached resolution,
        // then apply the collected deltas back down, caching each rung
        // (deep chains share prefixes, so the next read starts warm).
        // The links are the ones parsing proved acyclic and bounded; a
        // base id that no longer names its link's base was changed on
        // disk since, and the read fails naming the record.
        let mut chain: Vec<(ObjectId, Cow<'_, [u8]>)> = Vec::new();
        let mut base: Vec<u8> = loop {
            let cur = self.index.ids[pos];
            if let Some(hit) = self.cache.lock().unwrap().map.get(&cur) {
                break hit.clone();
            }
            let (is_delta, payload) = self.record_at(pos)?;
            if !is_delta {
                self.verify(cur, &payload)?;
                break payload.into_owned();
            }
            let base_pos = self.bases[&(pos as u32)] as usize;
            if payload[..20] != self.index.ids[base_pos].0 {
                return Err(GitError::Corrupt(format!(
                    "packed object {}: delta base changed since the pack was opened",
                    cur.short()
                )));
            }
            chain.push((cur, payload));
            pos = base_pos;
        };
        for (link_id, payload) in chain.into_iter().rev() {
            crate::metrics::DELTA_RESOLUTIONS.inc();
            let out = apply_delta(&base, &payload[20..]).map_err(|e| match e {
                GitError::Corrupt(msg) => {
                    GitError::Corrupt(format!("packed object {}: {msg}", link_id.short()))
                }
                other => other,
            })?;
            self.verify(link_id, &out)?;
            self.cache_put(link_id, out.clone());
            base = out;
        }
        Ok(base)
    }

    fn cache_put(&self, id: ObjectId, bytes: Vec<u8>) {
        let mut cache = self.cache.lock().unwrap();
        if cache.bytes + bytes.len() > DELTA_CACHE_BYTES {
            cache.map.clear();
            cache.bytes = 0;
        }
        if bytes.len() <= DELTA_CACHE_BYTES {
            cache.bytes += bytes.len();
            cache.map.insert(id, bytes);
        }
    }
}

/// What [`check_pack`] learned about a pack's bytes.
struct CheckedPack {
    index: PackIndex,
    words: Vec<u32>,
    bases: HashMap<u32, u32>,
    size: u64,
}

/// The structural checks behind [`Pack::parse`] and [`Pack::open`].
fn check_pack(data: &[u8], idx: Option<&[u8]>) -> Result<CheckedPack> {
    let index = match idx {
        None => index_pack(data)?,
        Some(bytes) => {
            let index = PackIndex::parse(bytes)?;
            let (count, checksum, version) = pack_header(data)?;
            if checksum != index.pack_checksum {
                return Err(GitError::Corrupt(format!(
                    "index for pack {} paired with pack {}",
                    index.pack_checksum.short(),
                    checksum.short()
                )));
            }
            if count != index.len() {
                return Err(GitError::Corrupt(format!(
                    "pack holds {count} records, index lists {}",
                    index.len()
                )));
            }
            let body_len = data.len() - TRAILER_LEN;
            for (id, &off) in index.ids.iter().zip(&index.offsets) {
                let off = off as usize;
                if off + RECORD_PREFIX > body_len {
                    return Err(GitError::Corrupt(format!(
                        "indexed offset for {} is out of bounds",
                        id.short()
                    )));
                }
                if data[off..off + 20] != id.0 {
                    return Err(GitError::Corrupt(format!(
                        "indexed offset for {} points at another record",
                        id.short()
                    )));
                }
                let word = word_at(data, off);
                if word & DELTA_FLAG != 0 && version < PACK_VERSION_DELTA {
                    return Err(GitError::Corrupt(format!(
                        "record for {} is a delta in a version-1 pack",
                        id.short()
                    )));
                }
                let len = (word & LEN_MASK) as usize;
                if off + RECORD_PREFIX + len > body_len {
                    return Err(GitError::Corrupt(format!(
                        "indexed record for {} overruns the pack",
                        id.short()
                    )));
                }
            }
            index
        }
    };
    let bases = validate_delta_chains(data, &index)?;
    let words = index
        .offsets
        .iter()
        .map(|&off| word_at(data, off as usize))
        .collect();
    Ok(CheckedPack {
        index,
        words,
        bases,
        size: data.len() as u64,
    })
}

/// The length word of the record at `off`.
fn word_at(data: &[u8], off: usize) -> u32 {
    u32::from_be_bytes(data[off + 20..off + 24].try_into().unwrap())
}

/// Walks every delta record's base chain: bases must be records of the
/// same pack, chains must be acyclic and bounded by [`MAX_DELTA_DEPTH`].
/// Returns each delta record's base, by index position. Offsets and
/// lengths were already bounds-checked by the caller.
fn validate_delta_chains(data: &[u8], index: &PackIndex) -> Result<HashMap<u32, u32>> {
    let corrupt = |msg: String| GitError::Corrupt(format!("pack file: {msg}"));
    // The record at index position `pos`: whether it is a delta, and its
    // payload.
    let record = |pos: usize| -> (bool, &[u8]) {
        let off = index.offsets[pos] as usize;
        let word = word_at(data, off);
        let len = (word & LEN_MASK) as usize;
        (
            word & DELTA_FLAG != 0,
            &data[off + RECORD_PREFIX..off + RECORD_PREFIX + len],
        )
    };
    let mut bases = HashMap::new();
    // Chain depth by index position, once known; full records are 0.
    let mut depth: Vec<Option<u32>> = vec![None; index.len()];
    for (start, id) in index.ids().iter().enumerate() {
        let mut chain: Vec<usize> = Vec::new();
        let mut cur = start;
        let base_depth = loop {
            if let Some(d) = depth[cur] {
                break d;
            }
            let (is_delta, payload) = record(cur);
            if !is_delta {
                depth[cur] = Some(0);
                break 0;
            }
            if payload.len() < DELTA_PREFIX {
                return Err(corrupt(format!(
                    "delta record for {} is too short",
                    index.ids[cur].short()
                )));
            }
            if chain.contains(&cur) {
                return Err(corrupt(format!(
                    "delta chain through {} is cyclic",
                    id.short()
                )));
            }
            chain.push(cur);
            let mut base_id = [0u8; 20];
            base_id.copy_from_slice(&payload[..20]);
            let base = ObjectId(base_id);
            let base_pos = index.position_of(base).ok_or_else(|| {
                corrupt(format!("delta base {} is not in the pack", base.short()))
            })?;
            bases.insert(cur as u32, base_pos as u32);
            cur = base_pos;
        };
        for (i, &link) in chain.iter().rev().enumerate() {
            let d = base_depth + i as u32 + 1;
            if d > MAX_DELTA_DEPTH {
                return Err(corrupt(format!(
                    "delta chain through {} exceeds depth {MAX_DELTA_DEPTH}",
                    id.short()
                )));
            }
            depth[link] = Some(d);
        }
    }
    Ok(bases)
}

/// What a [`PackStore::repack`] / [`PackStore::gc`] pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Objects written into the fresh pack.
    pub packed: usize,
    /// Unreachable objects discarded (always 0 for `repack`).
    pub dropped: usize,
    /// Old pack files deleted (their `.idx` files go with them).
    pub packs_removed: usize,
    /// Loose object files deleted after being packed.
    pub loose_removed: usize,
    /// Path of the fresh pack, or `None` when the store ended up empty.
    pub pack_path: Option<PathBuf>,
    /// Commits indexed by the freshly written commit-graph
    /// ([`crate::graph::CommitGraph`]; 0 when the store holds no
    /// commits).
    pub graph_commits: usize,
    /// Objects written as delta records rather than full bytes.
    pub delta_objects: usize,
    /// Bytes of the fresh pack file (0 when the store ended up empty).
    pub pack_bytes: u64,
    /// Canonical bytes of every packed object — what a delta-free pack
    /// body would have held; `canonical_bytes / pack_bytes` is the
    /// compression ratio `gitcite gc` reports.
    pub canonical_bytes: u64,
    /// Commits whose changed-path Bloom filter was written beside the
    /// graph ([`crate::graph::CommitGraph::bloom_coverage`]).
    pub bloom_commits: usize,
}

/// An [`ObjectStore`] serving reads from packs read in place, with a
/// loose [`DiskStore`] overflow area for new writes.
///
/// Opening checks each pack's structure, not its bytes: every record is
/// read from the file and hashed against its id when it is served
/// ([`Pack::read`]), so a read never serves wrong bytes, a damaged
/// record reads as [`GitError::Corrupt`], and a command that reads a
/// handful of objects reads and hashes only those. Memory grows with the
/// packs' indexes, not with their bytes.
///
/// Layout under the root directory:
///
/// ```text
/// <root>/pack/pack-<checksum>.pack   # consolidated objects
/// <root>/pack/pack-<checksum>.idx    # fanout index
/// <root>/pack/commit-graph.glcg      # commit-graph ([`crate::graph`])
/// <root>/ab/cdef...                  # loose overflow (DiskStore layout)
/// ```
///
/// The loose area *is* a [`DiskStore`] over the same root (`pack/` is not
/// a two-hex-char shard, so the loose scan ignores it), which means a
/// `PackStore` opens any pre-existing loose-object directory unchanged and
/// [`PackStore::repack`] is a pure layout migration. Reads prefer packs;
/// writes land loose until the next [`PackStore::repack`] /
/// [`PackStore::gc`] consolidates them, except a whole set handed to an
/// empty store ([`ObjectStore::put_raw_all`]), which lands as one pack.
#[derive(Debug, Clone)]
pub struct PackStore {
    packs: Vec<Arc<Pack>>,
    /// Union of every pack index, for O(1) `contains`.
    packed: Arc<HashSet<ObjectId>>,
    loose: DiskStore,
    /// The commit-graph sidecar (`pack/commit-graph.glcg`), when present
    /// and valid for this store's contents. `None` until the first
    /// `repack`/`gc` writes one; commits created since it was written are
    /// simply absent from it (walks fall back per tip).
    graph: Option<Arc<CommitGraph>>,
}

impl PackStore {
    /// Opens (creating if needed) the store rooted at `root`: loads every
    /// pack under `<root>/pack/` and checks its structure against its
    /// `.idx` (rebuilding any missing or damaged `.idx` from its pack;
    /// record bytes are verified later, as they are read), indexes the
    /// loose overflow, and loads the commit-graph sidecar. A
    /// present-but-corrupt or stale (referencing ids the store no longer
    /// holds) graph is rebuilt from a full scan of the store's commit
    /// objects and rewritten — the same recovery policy as a damaged
    /// `.idx`. A missing graph costs nothing
    /// here; the next [`PackStore::repack`]/[`PackStore::gc`] writes one.
    pub fn open(root: impl Into<PathBuf>) -> Result<PackStore> {
        let root = root.into();
        let loose = DiskStore::open(&root)?;
        let pack_dir = root.join(PACK_DIR);
        let mut pack_paths = Vec::new();
        if pack_dir.is_dir() {
            for entry in fs::read_dir(&pack_dir)? {
                let path = entry?.path();
                if path.extension().map(|e| e == "pack").unwrap_or(false) {
                    pack_paths.push(path);
                }
            }
        }
        pack_paths.sort();
        let mut packs = Vec::with_capacity(pack_paths.len());
        let mut packed = HashSet::new();
        for path in pack_paths {
            let idx_bytes = fs::read(path.with_extension("idx")).ok();
            let pack = match Pack::open(&path, idx_bytes.as_deref()) {
                Ok(p) => p,
                // A bad .idx is recoverable as long as the pack itself is
                // intact: fall back to scanning the pack.
                Err(_) if idx_bytes.is_some() => Pack::open(&path, None)?,
                Err(e) => return Err(e),
            };
            packed.extend(pack.index().ids().iter().copied());
            packs.push(Arc::new(pack));
        }
        let mut store = PackStore {
            packs,
            packed: Arc::new(packed),
            loose,
            graph: None,
        };
        store.graph = store.load_graph(&pack_dir);
        Ok(store)
    }

    /// Loads `pack/commit-graph.glcg`. Three repair paths, mirroring the
    /// `.idx` policy:
    ///
    /// * corrupt or **stale-superset** (describing commits this store no
    ///   longer holds — trusting it would resurrect dropped history) →
    ///   rebuilt from a full scan of the store's commit objects;
    /// * **stale-subset** (commits landed in the loose overflow since the
    ///   graph was written) → incrementally extended
    ///   ([`CommitGraph::extend`]): loose objects are picked out as
    ///   commits by their stored `commit ` prefix, without a hash or a
    ///   decode, and only the commits the graph is extended with are read
    ///   (hash-checked) and decoded; the packed history's records are
    ///   reused;
    /// * absent → stays absent (`None`, zero cost) until the next
    ///   `repack`/`gc` writes one.
    ///
    /// Repairs are written back; a repair that itself fails (e.g. a
    /// dangling parent in the store) degrades rather than erroring — the
    /// graph is an accelerator, never a reason a store fails to open.
    fn load_graph(&self, pack_dir: &Path) -> Option<Arc<CommitGraph>> {
        let bytes = fs::read(pack_dir.join(GRAPH_FILE)).ok()?;
        let parsed = CommitGraph::parse(&bytes)
            .ok()
            .filter(|g| g.ids().iter().all(|id| self.contains(*id)));
        let graph = match parsed {
            Some(graph) => {
                let new_commits: Vec<ObjectId> = self
                    .loose
                    .ids()
                    .into_iter()
                    .filter(|id| {
                        !self.packed.contains(id)
                            && !graph.contains(*id)
                            && self.loose.stored_as_commit(*id)
                    })
                    .collect();
                if new_commits.is_empty() {
                    return Some(Arc::new(graph));
                }
                match graph.extend(self, &new_commits) {
                    Ok(extended) => extended,
                    // A dangling parent among the new commits: keep the
                    // (valid) old coverage, let walks fall back for the
                    // uncovered tips.
                    Err(_) => return Some(Arc::new(graph)),
                }
            }
            None => self.scan_graph().ok()??,
        };
        // `extend` carried the packed history's Bloom filters over; fill
        // them in for the new commits (and for every commit on the
        // full-scan rebuild path) from the store's trees.
        let mut graph = graph;
        graph.compute_blooms(|tid| self.get(tid).ok().and_then(|o| o.as_tree().cloned()));
        let _ = write_atomic(&pack_dir.join(GRAPH_FILE), &graph.encode());
        Some(Arc::new(graph))
    }

    /// Builds a commit-graph over **every** commit object in the store
    /// (both layers) — the full-scan rebuild path. Objects are sniffed by
    /// their canonical-bytes prefix (`commit `) so non-commit objects are
    /// never decoded. Returns `Ok(None)` when the store holds no commits.
    fn scan_graph(&self) -> Result<Option<CommitGraph>> {
        let mut entries = Vec::new();
        for pack in &self.packs {
            for &id in pack.index().ids() {
                let bytes = pack.read(id)?.expect("indexed ids are in the pack");
                entries.extend(graph_entry(id, &bytes)?);
            }
        }
        for id in self.loose.ids() {
            if self.packed.contains(&id) || !self.loose.stored_as_commit(id) {
                continue;
            }
            let obj = self.loose.get(id)?;
            if let Some(c) = obj.as_commit() {
                entries.push(GraphEntry {
                    id,
                    tree: c.tree,
                    timestamp: c.author.timestamp,
                    parents: c.parents.clone(),
                });
            }
        }
        if entries.is_empty() {
            return Ok(None);
        }
        CommitGraph::from_entries(entries).map(Some)
    }

    /// The directory the store lives under.
    pub fn root(&self) -> &Path {
        self.loose.root()
    }

    /// Number of opened packs.
    pub fn pack_count(&self) -> usize {
        self.packs.len()
    }

    /// Objects currently served from packs.
    pub fn packed_len(&self) -> usize {
        self.packed.len()
    }

    /// Objects currently in the loose overflow area.
    pub fn loose_len(&self) -> usize {
        self.loose
            .ids()
            .into_iter()
            .filter(|id| !self.packed.contains(id))
            .count()
    }

    /// True when every write this handle accepted has reached disk.
    pub fn is_durable(&self) -> bool {
        self.loose.is_durable()
    }

    /// Retries any failed overflow writes (see [`DiskStore::flush`]).
    pub fn flush(&mut self) -> Result<()> {
        self.loose.flush()
    }

    /// Consolidates everything — packed and loose — into one fresh pack,
    /// dropping nothing. Old packs and loose files are removed once the
    /// new pack is durable.
    pub fn repack(&mut self) -> Result<MaintenanceReport> {
        self.consolidate(None)
    }

    /// Garbage collection: packs exactly the closure reachable from
    /// `roots` (commits walk to trees and parents, trees to entries) into
    /// one fresh pack and drops every other object. Old packs and loose
    /// files are removed once the new pack is durable.
    pub fn gc(&mut self, roots: &[ObjectId]) -> Result<MaintenanceReport> {
        self.consolidate(Some(roots))
    }

    fn consolidate(&mut self, roots: Option<&[ObjectId]>) -> Result<MaintenanceReport> {
        // Everything must be readable from disk state before we rewrite it.
        self.loose.flush()?;
        let total = self.len();
        // Each kept object is read once, as its stored bytes, from packs
        // read into memory for the pass.
        let reader = PackStore {
            packs: self
                .packs
                .iter()
                .map(|p| p.buffered().map(Arc::new))
                .collect::<Result<_>>()?,
            ..self.clone()
        };
        let mut objects = Vec::new();
        match roots {
            Some(roots) => reader.walk_raw(roots, &mut |id, bytes| objects.push((id, bytes)))?,
            None => {
                for id in reader.ids() {
                    objects.push((id, reader.get_raw(id)?));
                }
            }
        }
        drop(reader);
        let dropped = total - objects.len();
        // Abort before anything is written or deleted: a record length
        // is 31 bits (the high bit is the delta flag), and silently
        // truncating would corrupt the fresh pack while the loose
        // originals get removed underneath it.
        if let Some((id, bytes)) = objects.iter().find(|(_, b)| b.len() > LEN_MASK as usize) {
            return Err(GitError::Io(format!(
                "object {} is {} bytes, exceeding the 2 GiB pack record \
                 limit; repack aborted (the object stays loose)",
                id.short(),
                bytes.len()
            )));
        }
        let old_packs: Vec<PathBuf> = self.packs.iter().map(|p| p.path.clone()).collect();
        let old_loose = self.loose.ids();

        let packed = objects.len();
        let canonical_bytes: u64 = objects.iter().map(|(_, b)| b.len() as u64).sum();
        // The commit-graph over the surviving set: the kept bytes are
        // already in hand, so indexing the commits among them costs one
        // decode per commit and no extra store reads. Build it *before*
        // the pack is written so a failure (impossible for a well-formed
        // closure, but entries are checked) aborts cleanly.
        // A dangling parent (possible in stores populated by an
        // interrupted object transfer) must not abort maintenance: skip
        // the graph, keep consolidating — same degrade policy as
        // `load_graph`.
        let graph = graph_of(&objects)?;
        // Changed-path Bloom filters, diffed from the kept bytes while
        // they are still in hand (one decode per distinct tree, memoized
        // inside `compute_blooms`).
        let graph = graph.map(|mut g| {
            let by_id: HashMap<ObjectId, &Vec<u8>> =
                objects.iter().map(|(id, b)| (*id, b)).collect();
            g.compute_blooms(|tid| {
                by_id
                    .get(&tid)
                    .and_then(|b| decode_object(b).ok())
                    .and_then(|o| match o {
                        Object::Tree(t) => Some(t),
                        _ => None,
                    })
            });
            g
        });
        let graph_commits = graph.as_ref().map(CommitGraph::len).unwrap_or(0);
        let bloom_commits = graph.as_ref().map(CommitGraph::bloom_coverage).unwrap_or(0);

        let mut pack_path = None;
        let mut delta_objects = 0;
        let mut pack_bytes = 0u64;
        if !objects.is_empty() {
            let encoded = encode_pack_deltified(objects);
            delta_objects = encoded.delta_objects;
            pack_bytes = encoded.pack.len() as u64;
            let pack_dir = self.root().join(PACK_DIR);
            fs::create_dir_all(&pack_dir)?;
            let stem = pack_dir.join(format!("pack-{}", encoded.checksum.to_hex()));
            // Pack before index: a pack without its index is recoverable
            // (reindexed at open), an index without its pack is garbage.
            write_atomic(&stem.with_extension("pack"), &encoded.pack)?;
            write_atomic(&stem.with_extension("idx"), &encoded.index)?;
            pack_path = Some(stem.with_extension("pack"));
            match &graph {
                Some(g) => write_atomic(&pack_dir.join(GRAPH_FILE), &g.encode())?,
                // No commits survived: a stale graph would resurrect
                // dropped history at the next open.
                None => {
                    let _ = fs::remove_file(pack_dir.join(GRAPH_FILE));
                }
            }
        } else {
            let _ = fs::remove_file(self.root().join(PACK_DIR).join(GRAPH_FILE));
        }

        // The fresh pack is durable; retire the old layout.
        let mut packs_removed = 0;
        for old in old_packs {
            if Some(&old) != pack_path.as_ref() {
                fs::remove_file(&old)?;
                let _ = fs::remove_file(old.with_extension("idx"));
                packs_removed += 1;
            }
        }
        let mut loose_removed = 0;
        for id in old_loose {
            let hex = id.to_hex();
            let file = self.root().join(&hex[..2]).join(&hex[2..]);
            if fs::remove_file(file).is_ok() {
                loose_removed += 1;
            }
        }
        prune_empty_shards(&self.root().to_path_buf())?;

        *self = PackStore::open(self.root().to_path_buf())?;
        Ok(MaintenanceReport {
            packed,
            dropped,
            packs_removed,
            loose_removed,
            pack_path,
            graph_commits,
            delta_objects,
            pack_bytes,
            canonical_bytes,
            bloom_commits,
        })
    }

    /// Records stored as deltas across every opened pack.
    pub fn delta_objects(&self) -> usize {
        self.packs.iter().map(|p| p.delta_objects()).sum()
    }
}

/// The commit-graph record of `id` when its bytes are a commit's.
fn graph_entry(id: ObjectId, bytes: &[u8]) -> Result<Option<GraphEntry>> {
    if !bytes.starts_with(b"commit ") {
        return Ok(None);
    }
    let obj = decode_object(bytes)?;
    let c = obj.as_commit().expect("commit prefix");
    Ok(Some(GraphEntry {
        id,
        tree: c.tree,
        timestamp: c.author.timestamp,
        parents: c.parents.clone(),
    }))
}

/// A commit-graph over the commits among `objects`; `None` when there
/// are none or one names a parent outside the set (the graph is an
/// accelerator, so its absence is never an error).
fn graph_of<B: AsRef<[u8]>>(objects: &[(ObjectId, B)]) -> Result<Option<CommitGraph>> {
    let mut entries = Vec::new();
    for (id, bytes) in objects {
        entries.extend(graph_entry(*id, bytes.as_ref())?);
    }
    if entries.is_empty() {
        return Ok(None);
    }
    Ok(CommitGraph::from_entries(entries).ok())
}

/// Streams `objects` (sorted by id, no duplicates) to disk as one
/// delta-free version-1 pack plus its index under `pack_dir`: each
/// record goes through a buffered writer and the trailer's SHA-1 as it
/// is written, so no pack-sized buffer is built. The pack is renamed
/// into place before its index is written, as [`PackStore::gc`] orders
/// them, and comes back open for in-place reads.
fn write_pack(pack_dir: &Path, objects: &[(ObjectId, &[u8])]) -> Result<Pack> {
    static TEMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = TEMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = pack_dir.join(format!(".tmp-pack-{}-{n}", std::process::id()));
    let write = || -> std::io::Result<(fs::File, Written)> {
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&tmp)?;
        let mut pack = PackWriter::new(std::io::BufWriter::new(file), PACK_VERSION, objects.len())?;
        for &(id, bytes) in objects {
            pack.full(id, bytes)?;
        }
        let (out, written) = pack.finish()?;
        Ok((out.into_inner().map_err(|e| e.into_error())?, written))
    };
    let (file, written) = match write() {
        Ok(w) => w,
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
    };
    let stem = pack_dir.join(format!("pack-{}", written.checksum.to_hex()));
    let path = stem.with_extension("pack");
    if let Err(e) = fs::rename(&tmp, &path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    write_atomic(
        &stem.with_extension("idx"),
        &encode_index(&written.ids, &written.offsets, written.checksum),
    )?;
    let checked = CheckedPack {
        index: PackIndex {
            fanout: fanout_of(&written.ids),
            ids: written.ids,
            offsets: written.offsets,
            pack_checksum: written.checksum,
        },
        words: written.words,
        bases: HashMap::new(),
        size: written.size,
    };
    Ok(Pack::new(Body::File(file), checked, path))
}

/// Removes loose shard directories that became empty after consolidation.
fn prune_empty_shards(root: &PathBuf) -> Result<()> {
    for entry in fs::read_dir(root)? {
        let path = entry?.path();
        let is_shard = path.is_dir()
            && path
                .file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.len() == 2)
                .unwrap_or(false);
        if is_shard && fs::read_dir(&path)?.next().is_none() {
            fs::remove_dir(&path)?;
        }
    }
    Ok(())
}

/// Writes `bytes` to `file` via a temp file + rename, so readers never see
/// a partial pack or index. (Racing writers of the same content-named file
/// are benign — they write identical bytes.)
fn write_atomic(file: &Path, bytes: &[u8]) -> Result<()> {
    let dir = file.parent().expect("pack files live in a directory");
    crate::store::write_via_rename(dir, file, bytes).map_err(Into::into)
}

impl ObjectStore for PackStore {
    /// Packed bytes through [`Pack::read`], which hashes each record
    /// against its id as it serves it — a damaged record is `Corrupt`,
    /// not a fall-through to the loose area — else the loose file under
    /// its own per-read hash check.
    fn get(&self, id: ObjectId) -> Result<Arc<Object>> {
        for pack in &self.packs {
            if let Some(bytes) = pack.read(id)? {
                crate::metrics::PACK_READS.inc();
                return Ok(Arc::new(decode_object(&bytes)?));
            }
        }
        crate::metrics::LOOSE_READS.inc();
        self.loose.get(id)
    }

    /// [`PackStore::get`]'s verified bytes, without the decode.
    fn get_raw(&self, id: ObjectId) -> Result<Vec<u8>> {
        for pack in &self.packs {
            if let Some(bytes) = pack.read(id)? {
                crate::metrics::PACK_READS.inc();
                return Ok(bytes.into_owned());
            }
        }
        crate::metrics::LOOSE_READS.inc();
        self.loose.get_raw(id)
    }

    fn put_with_id(&mut self, id: ObjectId, object: Arc<Object>) {
        debug_assert_eq!(object.id(), id, "put_with_id called with a mismatched id");
        if self.packed.contains(&id) {
            return;
        }
        self.loose.put_with_id(id, object);
    }

    fn put_raw(&mut self, id: ObjectId, bytes: &[u8]) -> Result<ObjectId> {
        if self.packed.contains(&id) {
            // Checked all the same: the caller may go on to trust `bytes`.
            verify_claimed_id(id, bytes)?;
            return Ok(id);
        }
        self.loose.put_raw(id, bytes)
    }

    /// A store that holds nothing yet takes the set as one delta-free
    /// pack, streamed to disk record by record, plus a commit-graph over
    /// its commits. The graph has no changed-path Bloom filters: those
    /// stay a [`PackStore::gc`] product, since computing them decodes
    /// and keeps every tree of the history. A store that already holds
    /// objects takes the set loose, as [`ObjectStore::put_raw`] would.
    fn put_raw_all(&mut self, objects: &[(ObjectId, &[u8])]) -> Result<()> {
        if objects.is_empty() || !self.is_empty() {
            for &(id, bytes) in objects {
                self.put_raw(id, bytes)?;
            }
            return Ok(());
        }
        if let Some((id, bytes)) = objects.iter().find(|(_, b)| b.len() > LEN_MASK as usize) {
            return Err(GitError::Io(format!(
                "object {} is {} bytes, exceeding the 2 GiB pack record limit",
                id.short(),
                bytes.len()
            )));
        }
        debug_assert!(objects
            .iter()
            .all(|&(id, b)| verify_claimed_id(id, b).is_ok()));
        let mut sorted = objects.to_vec();
        sorted.sort_by_key(|o| o.0);
        sorted.dedup_by_key(|o| o.0);
        let graph = graph_of(objects)?;
        let pack_dir = self.root().join(PACK_DIR);
        fs::create_dir_all(&pack_dir)?;
        let pack = write_pack(&pack_dir, &sorted)?;
        if let Some(graph) = &graph {
            write_atomic(&pack_dir.join(GRAPH_FILE), &graph.encode())?;
        }
        self.packed = Arc::new(pack.index().ids().iter().copied().collect());
        self.packs = vec![Arc::new(pack)];
        self.graph = graph.map(Arc::new);
        Ok(())
    }

    fn put_many(&mut self, objects: Vec<(ObjectId, Arc<Object>)>) {
        let packed = Arc::clone(&self.packed);
        self.loose.put_many(
            objects
                .into_iter()
                .filter(|(id, _)| !packed.contains(id))
                .collect(),
        );
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.packed.contains(&id) || self.loose.contains(id)
    }

    fn len(&self) -> usize {
        self.packed.len() + self.loose_len()
    }

    fn ids(&self) -> Vec<ObjectId> {
        self.packed
            .iter()
            .copied()
            .chain(
                self.loose
                    .ids()
                    .into_iter()
                    .filter(|id| !self.packed.contains(id)),
            )
            .collect()
    }

    /// The commit-graph loaded from (or rebuilt for) this store — what
    /// turns every history walk over packed commits into array reads.
    fn commit_graph(&self) -> Option<Arc<CommitGraph>> {
        self.graph.clone()
    }

    fn delta_objects(&self) -> Option<u64> {
        Some(PackStore::delta_objects(self) as u64)
    }

    /// Maintenance *is* [`PackStore::gc`]: consolidate packs + loose
    /// overflow into one fresh pack holding exactly the closure of
    /// `roots` (plus a fresh commit-graph), dropping everything
    /// unreachable.
    fn maintain(&mut self, roots: &[ObjectId]) -> Option<Result<MaintenanceReport>> {
        Some(self.gc(roots))
    }

    fn clone_box(&self) -> Box<dyn ObjectStore> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Blob, Commit, EntryMode, Signature, Tree, TreeEntry};
    use crate::store::ObjectStoreExt;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "gitlite-pack-test-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_objects(n: usize) -> Vec<(ObjectId, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let blob = Blob::new(format!("payload {i}").into_bytes());
                (blob.id(), blob.canonical_bytes())
            })
            .collect()
    }

    fn sample_commit<S: ObjectStore + ?Sized>(
        store: &mut S,
        msg: &str,
        parents: Vec<ObjectId>,
    ) -> ObjectId {
        let blob = store.put_blob(format!("content of {msg}"));
        let mut tree = Tree::new();
        tree.insert(
            "f.txt",
            TreeEntry {
                mode: EntryMode::File,
                id: blob,
            },
        );
        let tree_id = store.put(Object::Tree(tree));
        store.put(Object::Commit(Commit {
            tree: tree_id,
            parents,
            author: Signature::new("t", "t@t", 0),
            message: msg.into(),
        }))
    }

    #[test]
    fn encode_is_deterministic_and_order_independent() {
        let objects = sample_objects(10);
        let mut shuffled = objects.clone();
        shuffled.reverse();
        let a = encode_pack(objects);
        let b = encode_pack(shuffled);
        assert_eq!(a.pack, b.pack);
        assert_eq!(a.index, b.index);
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn index_lookup_finds_every_object() {
        let objects = sample_objects(100);
        let encoded = encode_pack(objects.clone());
        let pack = Pack::parse(encoded.pack, Some(&encoded.index), PathBuf::new()).unwrap();
        for (id, bytes) in &objects {
            assert_eq!(pack.raw(*id).unwrap(), &bytes[..]);
        }
        assert_eq!(
            pack.index().offset_of(ObjectId::hash_bytes(b"absent")),
            None
        );
        assert_eq!(pack.index().len(), 100);
    }

    #[test]
    fn reindexing_a_pack_matches_its_encoded_index() {
        let encoded = encode_pack(sample_objects(25));
        let scanned = index_pack(&encoded.pack).unwrap();
        let parsed = PackIndex::parse(&encoded.index).unwrap();
        assert_eq!(scanned.ids, parsed.ids);
        assert_eq!(scanned.offsets, parsed.offsets);
        assert_eq!(scanned.pack_checksum, parsed.pack_checksum);
    }

    #[test]
    fn corruption_is_detected() {
        let encoded = encode_pack(sample_objects(5));
        // Flipped byte in the pack body.
        let mut bad_pack = encoded.pack.clone();
        bad_pack[HEADER_LEN + 30] ^= 0xff;
        assert!(matches!(index_pack(&bad_pack), Err(GitError::Corrupt(_))));
        // Flipped byte in the index.
        let mut bad_idx = encoded.index.clone();
        let at = bad_idx.len() / 2;
        bad_idx[at] ^= 0xff;
        assert!(matches!(
            PackIndex::parse(&bad_idx),
            Err(GitError::Corrupt(_))
        ));
        // Index paired with the wrong pack.
        let other = encode_pack(sample_objects(6));
        assert!(matches!(
            Pack::parse(other.pack, Some(&encoded.index), PathBuf::new()),
            Err(GitError::Corrupt(_))
        ));
    }

    #[test]
    fn pack_store_reads_packs_and_overflows_loose() {
        let dir = temp_dir("overflow");
        let mut store = PackStore::open(&dir).unwrap();
        let c1 = sample_commit(&mut store, "one", vec![]);
        assert_eq!(store.pack_count(), 0);
        assert_eq!(store.loose_len(), 3);
        store.repack().unwrap();
        assert_eq!(store.pack_count(), 1);
        assert_eq!(store.loose_len(), 0);
        assert!(store.contains(c1));
        assert_eq!(store.commit(c1).unwrap().message, "one");

        // New writes land loose; packed reads keep working.
        let extra = store.put_blob("fresh overflow");
        assert_eq!(store.loose_len(), 1);
        assert_eq!(store.blob_data(extra).unwrap().as_ref(), b"fresh overflow");
        assert_eq!(store.len(), 4);

        // A fresh handle sees both layers.
        let reopened = PackStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 4);
        assert!(reopened.contains(c1));
        assert!(reopened.contains(extra));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_raw_checks_bytes_claimed_for_a_packed_object() {
        let dir = temp_dir("packed-raw");
        let mut store = PackStore::open(&dir).unwrap();
        let c1 = sample_commit(&mut store, "one", vec![]);
        store.repack().unwrap();
        let bytes = store.get(c1).unwrap().canonical_bytes();
        assert_eq!(store.put_raw(c1, &bytes).unwrap(), c1);
        assert!(matches!(
            store.put_raw(c1, b"blob 4\0fake"),
            Err(GitError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repack_consolidates_and_gc_drops_unreachable() {
        let dir = temp_dir("gc");
        let mut store = PackStore::open(&dir).unwrap();
        let c1 = sample_commit(&mut store, "one", vec![]);
        let c2 = sample_commit(&mut store, "two", vec![c1]);
        let garbage = store.put_blob("unreachable");
        let report = store.repack().unwrap();
        assert_eq!(report.packed, 7);
        assert_eq!(report.dropped, 0);
        assert!(store.contains(garbage));

        // More loose writes, then a gc keeping only c2's closure.
        store.put_blob("more garbage");
        let report = store.gc(&[c2]).unwrap();
        assert_eq!(report.packed, 6); // c1+c2, 2 trees, 2 blobs
        assert_eq!(report.dropped, 2);
        assert_eq!(report.packs_removed, 1);
        assert!(!store.contains(garbage));
        assert_eq!(
            store.get(garbage).unwrap_err(),
            GitError::ObjectNotFound(garbage)
        );
        assert_eq!(store.commit(c2).unwrap().message, "two");
        assert_eq!(store.len(), 6);

        // On disk: exactly one pack + one idx + the commit-graph, no
        // loose shards.
        let files: Vec<_> = fs::read_dir(dir.join(PACK_DIR))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 3);
        assert!(files.iter().any(|p| p.ends_with(GRAPH_FILE)));
        let shards = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_dir() && p.file_name().unwrap().len() == 2)
            .count();
        assert_eq!(shards, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_is_idempotent_and_reopen_preserves_the_result() {
        let dir = temp_dir("idempotent");
        let mut store = PackStore::open(&dir).unwrap();
        let c = sample_commit(&mut store, "keep", vec![]);
        store.put_blob("drop me");
        store.gc(&[c]).unwrap();
        let first = store.ids();
        // A second gc finds nothing to drop and reuses the same pack name
        // (content-addressed), leaving the store unchanged.
        let report = store.gc(&[c]).unwrap();
        assert_eq!(report.dropped, 0);
        assert_eq!(report.packs_removed, 0);
        let reopened = PackStore::open(&dir).unwrap();
        let mut a = first;
        let mut b = reopened.ids();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_index_is_rebuilt_from_the_pack() {
        let dir = temp_dir("reindex");
        let mut store = PackStore::open(&dir).unwrap();
        let c = sample_commit(&mut store, "one", vec![]);
        store.repack().unwrap();
        let idx = fs::read_dir(dir.join(PACK_DIR))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().map(|e| e == "idx").unwrap_or(false))
            .unwrap();
        fs::remove_file(&idx).unwrap();
        let reopened = PackStore::open(&dir).unwrap();
        assert!(reopened.contains(c));
        assert_eq!(reopened.commit(c).unwrap().message, "one");

        // A damaged index is likewise survivable.
        store.repack().unwrap();
        let idx_path = fs::read_dir(dir.join(PACK_DIR))
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().map(|e| e == "idx").unwrap_or(false))
            .unwrap();
        let mut bytes = fs::read(&idx_path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xff;
        fs::write(&idx_path, bytes).unwrap();
        let reopened = PackStore::open(&dir).unwrap();
        assert!(reopened.contains(c));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Asserts `result` is `Corrupt` with a message naming `id`.
    fn assert_corrupt_naming<T: fmt::Debug>(result: Result<T>, id: ObjectId) {
        match result {
            Err(GitError::Corrupt(msg)) => assert!(msg.contains(&id.short()), "{msg}"),
            other => panic!("expected Corrupt naming {}, got {other:?}", id.short()),
        }
    }

    #[test]
    fn packed_reads_detect_tampering() {
        let dir = temp_dir("tamper");
        let mut store = PackStore::open(&dir).unwrap();
        let c = sample_commit(&mut store, "one", vec![]);
        let blob = Blob::new(b"content of one".to_vec()).id();
        store.repack().unwrap();
        let late = store.put_blob("loose after the repack");
        let pack_file = store.packs[0].path().to_path_buf();
        let off = store.packs[0].index().offset_of(blob).unwrap() as usize;
        let mut bytes = fs::read(&pack_file).unwrap();
        bytes[off + RECORD_PREFIX + 10] ^= 0xff; // inside the blob's payload
        fs::write(&pack_file, bytes).unwrap();

        // Open checks structure, not record bytes: it succeeds, and
        // records other than the tampered one read as before.
        let mut store = PackStore::open(&dir).unwrap();
        assert!(store.contains(blob));
        assert_eq!(store.commit(c).unwrap().message, "one");
        // The tampered record is Corrupt when read, never a fall-through
        // to the loose area or wrong bytes.
        assert_corrupt_naming(store.get(blob), blob);
        assert_corrupt_naming(store.get_raw(blob), blob);
        // A gc that cannot read its closure stops before it writes or
        // deletes anything.
        assert_corrupt_naming(store.gc(&[c]), blob);
        assert!(pack_file.exists(), "the old pack survives");
        let hex = late.to_hex();
        assert!(
            dir.join(&hex[..2]).join(&hex[2..]).exists(),
            "loose files survive"
        );
        assert_eq!(store.pack_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repack_survives_a_dangling_parent_by_skipping_the_graph() {
        let dir = temp_dir("dangling");
        let mut store = PackStore::open(&dir).unwrap();
        let c = sample_commit(&mut store, "ok", vec![]);
        // A commit whose parent was never stored (an interrupted object
        // transfer can leave this state): repack must still consolidate,
        // just without a commit-graph.
        let tree = store.commit(c).unwrap().tree;
        let dangling = store.put(Object::Commit(Commit {
            tree,
            parents: vec![ObjectId::hash_bytes(b"never stored")],
            author: Signature::new("t", "t@t", 1),
            message: "dangling".into(),
        }));
        let report = store.repack().unwrap();
        assert_eq!(report.packed, 4);
        assert_eq!(report.graph_commits, 0, "graph skipped, not fatal");
        assert!(store.commit_graph().is_none());
        assert!(!dir.join(PACK_DIR).join(GRAPH_FILE).exists());
        assert!(store.contains(dangling));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_extends_the_graph_over_new_loose_commits() {
        let dir = temp_dir("extend");
        let mut store = PackStore::open(&dir).unwrap();
        let c1 = sample_commit(&mut store, "one", vec![]);
        store.gc(&[c1]).unwrap();
        assert_eq!(store.commit_graph().unwrap().len(), 1);
        // New commits land loose after the graph was written.
        let c2 = sample_commit(&mut store, "two", vec![c1]);
        let c3 = sample_commit(&mut store, "three", vec![c2]);
        assert!(!store.commit_graph().unwrap().contains(c3));
        // Reopening extends the graph incrementally (refs pointing at
        // loose commits are covered without a full rebuild) and rewrites
        // the sidecar.
        let reopened = PackStore::open(&dir).unwrap();
        let graph = reopened.commit_graph().unwrap();
        assert_eq!(graph.len(), 3);
        let pos = graph.lookup(c3).unwrap();
        assert_eq!(graph.generation_of(pos), 2);
        assert_eq!(graph.first_parent_chain(pos), vec![c3, c2, c1]);
        let on_disk = fs::read(dir.join(PACK_DIR).join(GRAPH_FILE)).unwrap();
        assert_eq!(
            crate::graph::CommitGraph::parse(&on_disk).unwrap().len(),
            3,
            "extension was persisted"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    // ----- delta records ------------------------------------------------

    /// n blob versions of one growing, occasionally-edited text — the
    /// shape deltas exist for.
    fn blob_versions(n: usize) -> Vec<(ObjectId, Vec<u8>)> {
        let mut text = "// shared preamble line with plenty of common bytes\n".repeat(8);
        text.push_str("fn main() {\n    // generated content\n");
        (0..n)
            .map(|i| {
                text.push_str(&format!("    let x{i} = {};\n", i * 37));
                if i % 5 == 0 {
                    text = text.replacen("generated", "regenerated", 1);
                }
                let blob = Blob::new(text.clone().into_bytes());
                (blob.id(), blob.canonical_bytes())
            })
            .collect()
    }

    /// Hand-assembles a version-2 pack from raw records (`(id, is_delta,
    /// payload)`); the trailer is correct, so only the delta-chain
    /// validation stands between these bytes and a parsed pack.
    fn craft_pack(records: &[(ObjectId, bool, Vec<u8>)]) -> Vec<u8> {
        let mut pack = Vec::new();
        pack.extend_from_slice(PACK_MAGIC);
        pack.extend_from_slice(&PACK_VERSION_DELTA.to_be_bytes());
        pack.extend_from_slice(&(records.len() as u32).to_be_bytes());
        for (id, is_delta, payload) in records {
            pack.extend_from_slice(&id.0);
            let word = payload.len() as u32 | if *is_delta { DELTA_FLAG } else { 0 };
            pack.extend_from_slice(&word.to_be_bytes());
            pack.extend_from_slice(payload);
        }
        let checksum = ObjectId::hash_bytes(&pack);
        pack.extend_from_slice(&checksum.0);
        pack
    }

    /// A delta payload: 20-byte base id, declared target length, ops.
    fn delta_payload(base: ObjectId, target_len: u32, ops: &[u8]) -> Vec<u8> {
        let mut p = base.0.to_vec();
        p.extend_from_slice(&target_len.to_be_bytes());
        p.extend_from_slice(ops);
        p
    }

    #[test]
    fn compute_delta_round_trips_and_undercuts_the_full_size() {
        let versions = blob_versions(8);
        let (_, ref base) = versions[0];
        let mut deltified = 0;
        for (_, target) in &versions[1..] {
            if let Some(delta) = compute_delta(base, target) {
                assert_eq!(apply_delta(base, &delta).unwrap(), *target);
                assert!(
                    delta.len() + 20 <= target.len() * 3 / 4,
                    "unprofitable delta kept"
                );
                deltified += 1;
            }
        }
        assert!(deltified > 0, "similar versions must deltify");
        // Tiny and unrelated targets are declined, never mis-encoded.
        assert_eq!(compute_delta(base, b"short"), None);
    }

    #[test]
    fn deltified_pack_round_trips_and_rescans() {
        let objects = blob_versions(30);
        let encoded = encode_pack_deltified(objects.clone());
        assert!(encoded.delta_objects > 0, "versioned blobs must deltify");
        let full = encode_pack(objects.clone());
        assert!(
            encoded.pack.len() < full.pack.len(),
            "deltified pack must be smaller"
        );
        // Reads resolve through chains byte-identically, with or without
        // the encoded index.
        let pack = Pack::parse(encoded.pack.clone(), Some(&encoded.index), PathBuf::new()).unwrap();
        assert_eq!(pack.delta_objects(), encoded.delta_objects);
        for (id, bytes) in &objects {
            assert_eq!(pack.raw(*id).unwrap(), &bytes[..]);
        }
        let rescanned = Pack::parse(encoded.pack.clone(), None, PathBuf::new()).unwrap();
        for (id, bytes) in &objects {
            assert_eq!(rescanned.raw(*id).unwrap(), &bytes[..]);
        }
        // Deltified encoding is deterministic too.
        let mut reversed = objects.clone();
        reversed.reverse();
        assert_eq!(encode_pack_deltified(reversed).pack, encoded.pack);
    }

    #[test]
    fn delta_free_sets_still_encode_as_version_1() {
        // Unrelated payloads yield no profitable delta, and the output
        // must be byte-identical to the pre-delta format.
        let objects = sample_objects(10);
        let deltified = encode_pack_deltified(objects.clone());
        assert_eq!(deltified.delta_objects, 0);
        assert_eq!(deltified.pack, encode_pack(objects).pack);
    }

    #[test]
    fn corrupt_delta_payloads_are_rejected() {
        let objects = blob_versions(20);
        let encoded = encode_pack_deltified(objects);
        // Any flipped byte in a delta record breaks the pack trailer.
        let mut bad = encoded.pack.clone();
        let at = HEADER_LEN + RECORD_PREFIX + 2;
        bad[at] ^= 0xff;
        assert!(matches!(
            Pack::parse(bad, None, PathBuf::new()),
            Err(GitError::Corrupt(_))
        ));
        // A delta flag in a version-1 pack is structural corruption.
        let full = encode_pack(sample_objects(3));
        let mut flagged = full.pack.clone();
        flagged[HEADER_LEN + 20] |= 0x80; // first record's len word, high bit
        let body_len = flagged.len() - TRAILER_LEN;
        let fixed_trailer = ObjectId::hash_bytes(&flagged[..body_len]);
        flagged[body_len..].copy_from_slice(&fixed_trailer.0);
        assert!(matches!(
            Pack::parse(flagged, None, PathBuf::new()),
            Err(GitError::Corrupt(_))
        ));
        // Malformed ops never panic, they error.
        let base = b"0123456789abcdef0123456789abcdef".as_slice();
        for ops in [
            &[OP_COPY, 0, 0, 0, 0, 0, 0, 1, 0][..], // copy overruns base
            &[OP_COPY, 0, 0][..],                   // truncated copy
            &[OP_INSERT, 0, 0, 0, 9, b'x'][..],     // insert overruns delta
            &[0x7f][..],                            // unknown op
        ] {
            let mut delta = 4u32.to_be_bytes().to_vec();
            delta.extend_from_slice(ops);
            assert!(matches!(
                apply_delta(base, &delta),
                Err(GitError::Corrupt(_))
            ));
        }
        // Length mismatch: ops produce fewer bytes than declared.
        assert!(matches!(
            apply_delta(base, &8u32.to_be_bytes()),
            Err(GitError::Corrupt(_))
        ));
    }

    #[test]
    fn delta_cycles_missing_bases_and_deep_chains_are_refused() {
        let mut ids: Vec<ObjectId> = (0..20u32)
            .map(|i| ObjectId::hash_bytes(&i.to_be_bytes()))
            .collect();
        ids.sort();
        // Two deltas pointing at each other: a cycle.
        let cyclic = craft_pack(&[
            (ids[0], true, delta_payload(ids[1], 0, &[])),
            (ids[1], true, delta_payload(ids[0], 0, &[])),
        ]);
        let err = Pack::parse(cyclic, None, PathBuf::new()).unwrap_err();
        assert!(err.to_string().contains("cyclic"), "{err}");
        // A delta whose base is not in the pack.
        let dangling = craft_pack(&[(ids[0], true, delta_payload(ids[19], 0, &[]))]);
        let err = Pack::parse(dangling, None, PathBuf::new()).unwrap_err();
        assert!(err.to_string().contains("not in the pack"), "{err}");
        // A chain one hop past MAX_DELTA_DEPTH.
        let mut records = vec![(ids[0], false, b"full base record".to_vec())];
        for i in 1..=(MAX_DELTA_DEPTH as usize + 1) {
            records.push((ids[i], true, delta_payload(ids[i - 1], 0, &[])));
        }
        let deep = craft_pack(&records);
        let err = Pack::parse(deep, None, PathBuf::new()).unwrap_err();
        assert!(err.to_string().contains("exceeds depth"), "{err}");
        // Trimmed to exactly MAX_DELTA_DEPTH the same pack parses.
        records.pop();
        assert!(Pack::parse(craft_pack(&records), None, PathBuf::new()).is_ok());
    }

    #[test]
    fn resolved_deltas_that_hash_wrong_return_nothing() {
        // A structurally valid pack whose delta does not reproduce the
        // id it claims: the resolver must refuse, not serve wrong bytes.
        let base_bytes = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base_id = ObjectId::hash_bytes(&base_bytes);
        let liar_id = ObjectId::hash_bytes(b"not what the delta produces");
        let mut records = vec![
            (base_id, false, base_bytes.clone()),
            (
                liar_id,
                true,
                delta_payload(base_id, 3, &[OP_COPY, 0, 0, 0, 0, 0, 0, 0, 3]),
            ),
        ];
        records.sort_by_key(|r| r.0);
        let pack = Pack::parse(craft_pack(&records), None, PathBuf::new()).unwrap();
        assert_eq!(pack.raw(base_id).unwrap(), &base_bytes[..]);
        assert_eq!(pack.raw(liar_id), None, "wrong answers are never returned");
    }

    #[test]
    fn corrupt_deltas_read_as_corrupt_naming_the_record() {
        // A delta that applies but reproduces other bytes than its id.
        let base_bytes = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base_id = ObjectId::hash_bytes(&base_bytes);
        let liar_id = ObjectId::hash_bytes(b"not what the delta produces");
        // A delta whose copy op overruns its base.
        let broken_id = ObjectId::hash_bytes(b"overrun");
        let mut records = vec![
            (base_id, false, base_bytes),
            (
                liar_id,
                true,
                delta_payload(base_id, 3, &[OP_COPY, 0, 0, 0, 0, 0, 0, 0, 3]),
            ),
            (
                broken_id,
                true,
                delta_payload(base_id, 99, &[OP_COPY, 0, 0, 0, 0, 0, 0, 0, 99]),
            ),
        ];
        records.sort_by_key(|r| r.0);
        let pack = Pack::parse(craft_pack(&records), None, PathBuf::new()).unwrap();
        assert!(pack.read(base_id).unwrap().is_some());
        assert_corrupt_naming(pack.read(liar_id), liar_id);
        assert_corrupt_naming(pack.read(broken_id), broken_id);
        assert!(pack
            .read(ObjectId::hash_bytes(b"absent"))
            .unwrap()
            .is_none());

        // The same through a store: a flipped byte at the end of a
        // stored delta record reads as Corrupt, not as missing.
        let dir = temp_dir("corrupt-delta");
        let mut store = PackStore::open(&dir).unwrap();
        for (id, bytes) in blob_versions(20) {
            store.put_raw(id, &bytes).unwrap();
        }
        store.repack().unwrap();
        let pack = &store.packs[0];
        let (delta_id, end) = pack
            .index()
            .ids()
            .iter()
            .enumerate()
            .find_map(|(pos, &id)| {
                let off = pack.index().offset_of(id).unwrap() as usize;
                let (is_delta, payload) = pack.record_at(pos).unwrap();
                is_delta.then(|| (id, off + RECORD_PREFIX + payload.len()))
            })
            .expect("versioned blobs deltify");
        let pack_file = pack.path().to_path_buf();
        let mut bytes = fs::read(&pack_file).unwrap();
        bytes[end - 1] ^= 0xff;
        fs::write(&pack_file, bytes).unwrap();
        let store = PackStore::open(&dir).unwrap();
        assert_corrupt_naming(store.get(delta_id), delta_id);
        assert_corrupt_naming(store.get_raw(delta_id), delta_id);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_delta_base_changed_after_open_reads_as_corrupt() {
        // The base id inside a delta record is rewritten on disk after the
        // store opened the pack: once to name no record of the pack, once
        // to name the record itself (a cycle). Both reads are Corrupt
        // naming the record; neither panics nor loops.
        let dir = temp_dir("base-after-open");
        let mut store = PackStore::open(&dir).unwrap();
        for (id, bytes) in blob_versions(20) {
            store.put_raw(id, &bytes).unwrap();
        }
        store.repack().unwrap();
        drop(store);
        let store = PackStore::open(&dir).unwrap();
        let pack = &store.packs[0];
        let (delta_id, base_at) = pack
            .index()
            .ids()
            .iter()
            .enumerate()
            .find_map(|(pos, &id)| {
                let off = pack.index().offset_of(id).unwrap() as usize;
                let is_delta = pack.words[pos] & DELTA_FLAG != 0;
                is_delta.then_some((id, off + RECORD_PREFIX))
            })
            .expect("versioned blobs deltify");
        let pack_file = pack.path().to_path_buf();
        let original = fs::read(&pack_file).unwrap();

        let mut bytes = original.clone();
        bytes[base_at] ^= 0xff;
        fs::write(&pack_file, &bytes).unwrap();
        assert_corrupt_naming(store.get_raw(delta_id), delta_id);

        let mut bytes = original.clone();
        bytes[base_at..base_at + 20].copy_from_slice(&delta_id.0);
        fs::write(&pack_file, &bytes).unwrap();
        assert_corrupt_naming(store.get(delta_id), delta_id);

        // Restored, the record reads again.
        fs::write(&pack_file, &original).unwrap();
        assert_eq!(store.get_raw(delta_id).unwrap(), {
            let versions = blob_versions(20);
            versions
                .into_iter()
                .find(|(id, _)| *id == delta_id)
                .unwrap()
                .1
        });
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_reports_compression_and_bloom_coverage() {
        let dir = temp_dir("ratio");
        let mut store = PackStore::open(&dir).unwrap();
        let mut tip = sample_commit(&mut store, "root", vec![]);
        for i in 0..5 {
            tip = sample_commit(&mut store, &format!("v{i}"), vec![tip]);
        }
        let report = store.gc(&[tip]).unwrap();
        assert_eq!(report.graph_commits, 6);
        assert_eq!(report.bloom_commits, 6, "every commit gets a filter");
        assert!(report.canonical_bytes > 0);
        assert!(report.pack_bytes > 0);
        // The graph sidecar round-trips the filters.
        let on_disk = fs::read(dir.join(PACK_DIR).join(GRAPH_FILE)).unwrap();
        let graph = CommitGraph::parse(&on_disk).unwrap();
        assert_eq!(graph.bloom_coverage(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_stores_backfill_and_rebuild_bloom_filters() {
        let dir = temp_dir("bloom-reopen");
        let tip = {
            let mut store = PackStore::open(&dir).unwrap();
            let mut tip = sample_commit(&mut store, "root", vec![]);
            for i in 0..3 {
                tip = sample_commit(&mut store, &format!("v{i}"), vec![tip]);
            }
            store.gc(&[tip]).unwrap();
            // A commit after gc leaves the on-disk chunk stale.
            sample_commit(&mut store, "late", vec![tip])
        };
        {
            let store = PackStore::open(&dir).unwrap();
            let graph = store.commit_graph().expect("graph loads");
            assert!(graph.contains(tip));
            assert_eq!(graph.len(), 5);
            assert_eq!(
                graph.bloom_coverage(),
                5,
                "extend carried old filters and backfilled the late commit"
            );
        }
        // A corrupt sidecar is rebuilt by full scan, filters included.
        let graph_path = dir.join(PACK_DIR).join(GRAPH_FILE);
        let mut bytes = fs::read(&graph_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&graph_path, &bytes).unwrap();
        let store = PackStore::open(&dir).unwrap();
        let graph = store.commit_graph().expect("graph rebuilt");
        assert_eq!(graph.len(), 5);
        assert_eq!(graph.bloom_coverage(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pack_store_opens_a_plain_loose_directory() {
        // Migration path: a directory written by DiskStore alone.
        let dir = temp_dir("migrate");
        let mut disk = DiskStore::open(&dir).unwrap();
        let c = sample_commit(&mut disk, "legacy", vec![]);
        drop(disk);
        let mut store = PackStore::open(&dir).unwrap();
        assert!(store.contains(c));
        let report = store.gc(&[c]).unwrap();
        assert_eq!(report.packed, 3);
        // And DiskStore handles simply no longer see the packed objects —
        // the overflow area is empty, not corrupt.
        let disk = DiskStore::open(&dir).unwrap();
        assert_eq!(disk.len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
