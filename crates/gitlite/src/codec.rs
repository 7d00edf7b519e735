//! Decoding canonical object bytes back into [`Object`]s.
//!
//! Encoding lives with each object type (`canonical_bytes`); this module is
//! the inverse, used by the on-disk store and the object-transfer paths
//! (clone/fetch/push).

use crate::error::{GitError, Result};
use crate::hash::ObjectId;
use crate::object::{Blob, Commit, EntryMode, Object, Signature, Tree, TreeEntry};
use bytes::Bytes;

/// Parses `"<kind> <len>\0<body>"` and decodes the body.
pub fn decode_object(bytes: &[u8]) -> Result<Object> {
    let (kind, body) = split_header(bytes)?;
    match kind {
        "blob" => Ok(Object::Blob(Blob::new(Bytes::copy_from_slice(body)))),
        "tree" => decode_tree(body).map(Object::Tree),
        "commit" => decode_commit(body).map(Object::Commit),
        other => Err(GitError::Corrupt(format!("unknown object kind {other:?}"))),
    }
}

/// The ids an object's bytes point at, in the order a reachability walk
/// pushes them: a commit's tree then its parents, a tree's entries in
/// name order, nothing for a blob. Accepts and rejects exactly what
/// [`decode_object`] does, but a tree's entries are read straight from
/// its body ([`tree_entry_ids`]) rather than built into a [`Tree`].
pub fn object_links(bytes: &[u8]) -> Result<Vec<ObjectId>> {
    let (kind, body) = split_header(bytes)?;
    match kind {
        "blob" => Ok(Vec::new()),
        "tree" => tree_entry_ids(body),
        "commit" => {
            let c = decode_commit(body)?;
            let mut links = Vec::with_capacity(1 + c.parents.len());
            links.push(c.tree);
            links.extend(c.parents);
            Ok(links)
        }
        other => Err(GitError::Corrupt(format!("unknown object kind {other:?}"))),
    }
}

/// Splits canonical bytes into their kind and a body whose length the
/// header vouches for.
fn split_header(bytes: &[u8]) -> Result<(&str, &[u8])> {
    let nul = bytes
        .iter()
        .position(|&b| b == 0)
        .ok_or_else(|| GitError::Corrupt("missing header terminator".into()))?;
    let header = std::str::from_utf8(&bytes[..nul])
        .map_err(|_| GitError::Corrupt("non-utf8 header".into()))?;
    let (kind, len_str) = header
        .split_once(' ')
        .ok_or_else(|| GitError::Corrupt(format!("malformed header {header:?}")))?;
    let len: usize = len_str
        .parse()
        .map_err(|_| GitError::Corrupt(format!("bad length {len_str:?}")))?;
    let body = &bytes[nul + 1..];
    if body.len() != len {
        return Err(GitError::Corrupt(format!(
            "length mismatch: header says {len}, body is {}",
            body.len()
        )));
    }
    Ok((kind, body))
}

/// The entry ids of a tree body, in the order the decoded [`Tree`] lists
/// them, without building the tree: `Ok` and `Err` exactly when the tree
/// decode gives them. A canonical body (names strictly ascending) is
/// read in place; one with repeated or unordered names is decoded, so
/// the map's order and its last-name-wins rule decide.
pub fn tree_entry_ids(body: &[u8]) -> Result<Vec<ObjectId>> {
    let mut ids = Vec::with_capacity(body.len() / 40);
    let mut prev: Option<&str> = None;
    let mut rest = body;
    while !rest.is_empty() {
        let (_, name, id) = next_tree_entry(&mut rest)?;
        if prev.is_some_and(|p| p >= name) {
            return Ok(decode_tree(body)?.iter().map(|(_, e)| e.id).collect());
        }
        prev = Some(name);
        ids.push(id);
    }
    Ok(ids)
}

/// Reads one `"<mode> <name>\0" + 20-byte id` entry off the front of a
/// tree body.
fn next_tree_entry<'a>(body: &mut &'a [u8]) -> Result<(EntryMode, &'a str, ObjectId)> {
    let sp = body
        .iter()
        .position(|&b| b == b' ')
        .ok_or_else(|| GitError::Corrupt("tree entry missing mode".into()))?;
    let mode = match &body[..sp] {
        b"100644" => EntryMode::File,
        b"40000" => EntryMode::Dir,
        m => {
            return Err(GitError::Corrupt(format!(
                "unknown tree entry mode {:?}",
                String::from_utf8_lossy(m)
            )))
        }
    };
    let rest = &body[sp + 1..];
    let nul = rest
        .iter()
        .position(|&b| b == 0)
        .ok_or_else(|| GitError::Corrupt("tree entry missing name terminator".into()))?;
    let name = std::str::from_utf8(&rest[..nul])
        .map_err(|_| GitError::Corrupt("non-utf8 tree entry name".into()))?;
    let rest = &rest[nul + 1..];
    if rest.len() < 20 {
        return Err(GitError::Corrupt("truncated tree entry id".into()));
    }
    let mut id = [0u8; 20];
    id.copy_from_slice(&rest[..20]);
    *body = &rest[20..];
    Ok((mode, name, ObjectId(id)))
}

fn decode_tree(mut body: &[u8]) -> Result<Tree> {
    let mut tree = Tree::new();
    while !body.is_empty() {
        let (mode, name, id) = next_tree_entry(&mut body)?;
        tree.insert(name, TreeEntry { mode, id });
    }
    Ok(tree)
}

fn decode_commit(body: &[u8]) -> Result<Commit> {
    let text =
        std::str::from_utf8(body).map_err(|_| GitError::Corrupt("non-utf8 commit body".into()))?;
    let (headers, message) = text
        .split_once("\n\n")
        .ok_or_else(|| GitError::Corrupt("commit missing message separator".into()))?;
    let mut tree = None;
    let mut parents = Vec::new();
    let mut author = None;
    for line in headers.lines() {
        let (key, rest) = line
            .split_once(' ')
            .ok_or_else(|| GitError::Corrupt(format!("malformed commit header {line:?}")))?;
        match key {
            "tree" => {
                tree = Some(
                    ObjectId::from_hex(rest)
                        .ok_or_else(|| GitError::Corrupt(format!("bad tree id {rest:?}")))?,
                );
            }
            "parent" => {
                parents.push(
                    ObjectId::from_hex(rest)
                        .ok_or_else(|| GitError::Corrupt(format!("bad parent id {rest:?}")))?,
                );
            }
            "author" => author = Some(decode_signature(rest)?),
            "committer" => {} // same as author in this substrate
            other => {
                return Err(GitError::Corrupt(format!(
                    "unknown commit header {other:?}"
                )))
            }
        }
    }
    Ok(Commit {
        tree: tree.ok_or_else(|| GitError::Corrupt("commit missing tree".into()))?,
        parents,
        author: author.ok_or_else(|| GitError::Corrupt("commit missing author".into()))?,
        message: message.to_owned(),
    })
}

fn decode_signature(s: &str) -> Result<Signature> {
    // Format: "Name <email> timestamp"
    let open = s
        .rfind('<')
        .ok_or_else(|| GitError::Corrupt(format!("bad signature {s:?}")))?;
    let close = s
        .rfind('>')
        .ok_or_else(|| GitError::Corrupt(format!("bad signature {s:?}")))?;
    if close < open {
        return Err(GitError::Corrupt(format!("bad signature {s:?}")));
    }
    let name = s[..open].trim_end().to_owned();
    let email = s[open + 1..close].to_owned();
    let timestamp: i64 = s[close + 1..]
        .trim()
        .parse()
        .map_err(|_| GitError::Corrupt(format!("bad signature timestamp in {s:?}")))?;
    Ok(Signature {
        name,
        email,
        timestamp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_round_trip() {
        let blob = Blob::new(&b"hello\nworld"[..]);
        let obj = decode_object(&blob.canonical_bytes()).unwrap();
        assert_eq!(obj, Object::Blob(blob));
    }

    #[test]
    fn tree_round_trip() {
        let mut tree = Tree::new();
        tree.insert(
            "file.txt",
            TreeEntry {
                mode: EntryMode::File,
                id: Blob::new(&b"a"[..]).id(),
            },
        );
        tree.insert(
            "dir",
            TreeEntry {
                mode: EntryMode::Dir,
                id: Tree::new().id(),
            },
        );
        let obj = decode_object(&tree.canonical_bytes()).unwrap();
        assert_eq!(obj.id(), tree.id());
        assert_eq!(obj, Object::Tree(tree));
    }

    #[test]
    fn commit_round_trip() {
        let commit = Commit {
            tree: Tree::new().id(),
            parents: vec![ObjectId::hash_bytes(b"p1"), ObjectId::hash_bytes(b"p2")],
            author: Signature::new("Yinjun Wu", "wu@example.org", 1536028520),
            message: "Merge branch 'gui'\n\nDetails here.".into(),
        };
        let obj = decode_object(&commit.canonical_bytes()).unwrap();
        assert_eq!(obj, Object::Commit(commit));
    }

    #[test]
    fn decoded_id_matches_encoded_id() {
        let blob = Blob::new(&b"x"[..]);
        let obj = decode_object(&blob.canonical_bytes()).unwrap();
        assert_eq!(obj.id(), blob.id());
    }

    #[test]
    fn rejects_corruption() {
        assert!(decode_object(b"").is_err());
        assert!(decode_object(b"blob x\0").is_err());
        assert!(decode_object(b"blob 5\0ab").is_err()); // length mismatch
        assert!(decode_object(b"weird 0\0").is_err());
        // Tree with truncated id.
        let mut bad = b"tree 10\x00100644 a\0x".to_vec();
        bad.truncate(bad.len() - 1);
        assert!(decode_object(&bad).is_err());
    }

    #[test]
    fn signature_with_tricky_name() {
        let commit = Commit {
            tree: Tree::new().id(),
            parents: vec![],
            author: Signature::new("A. B. <von> C", "a@b", -5),
            message: String::new(),
        };
        let obj = decode_object(&commit.canonical_bytes()).unwrap();
        let got = obj.as_commit().unwrap();
        // rfind-based parsing keeps everything before the *last* <...> as name.
        assert_eq!(got.author.email, "a@b");
        assert_eq!(got.author.timestamp, -5);
    }
}
