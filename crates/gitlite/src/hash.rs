//! SHA-1 (from scratch) and [`ObjectId`] content addresses.
//!
//! Git addresses every object by the SHA-1 of its canonical encoding; we do
//! the same so `gitlite` exhibits the property the citation model relies on:
//! *identical content ⇒ identical id*, across repositories. (SHA-1 is used
//! for content addressing, exactly as in Git — not as a security boundary.)

use std::fmt;

/// A 20-byte object identifier (SHA-1 of the object's canonical bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub [u8; 20]);

impl ObjectId {
    /// The id consisting of all zero bytes; used as a sentinel ("no id").
    pub const ZERO: ObjectId = ObjectId([0; 20]);

    /// Hashes `data` directly (no object-type framing).
    pub fn hash_bytes(data: &[u8]) -> ObjectId {
        let mut h = Sha1::new();
        h.update(data);
        ObjectId(h.finalize())
    }

    /// Renders the full 40-char lowercase hex form.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xF) as u32, 16).unwrap());
        }
        s
    }

    /// The 7-char abbreviated form Git shows by default (Listing 1 uses
    /// abbreviated commit ids such as `bbd248a`).
    pub fn short(self) -> String {
        self.to_hex()[..7].to_owned()
    }

    /// Parses a 40-char hex string.
    pub fn from_hex(s: &str) -> Option<ObjectId> {
        if s.len() != 40 {
            return None;
        }
        let mut out = [0u8; 20];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(ObjectId(out))
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({})", self.short())
    }
}

/// Incremental SHA-1 hasher (FIPS 180-1).
pub struct Sha1 {
    state: [u32; 5],
    len_bits: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len_bits: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len_bits = self.len_bits.wrapping_add((data.len() as u64) * 8);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(
                &mut self.state,
                block.try_into().expect("chunks_exact yields 64 bytes"),
            );
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Consumes the hasher and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let len_bits = self.len_bits;
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
        self.update_padding(0x80);
        while self.buf_len != 56 {
            self.update_padding(0x00);
        }
        let len_bytes = len_bits.to_be_bytes();
        for b in len_bytes {
            self.update_padding(b);
        }
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Pushes one padding byte without counting it toward the message length.
    fn update_padding(&mut self, byte: u8) {
        self.buf[self.buf_len] = byte;
        self.buf_len += 1;
        if self.buf_len == 64 {
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
    }
}

/// One SHA-1 block, unrolled: the message schedule lives in a 16-word
/// ring (word `i` overwrites word `i - 16`), and the 80 rounds are
/// straight-line code with each round's function and constant fixed, so
/// no round branches on its index. Instead of shifting `a..e` after every
/// round, each round renames them, which returns them to their places
/// every five rounds.
// The last rounds store schedule words no later round reads.
#[allow(unused_assignments)]
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;

    // Schedule word `i` for rounds 0..16 ...
    macro_rules! load {
        ($i:expr) => {
            w[$i]
        };
    }
    // ... and for rounds 16..80, computed into the slot of word `i - 16`.
    macro_rules! next {
        ($i:expr) => {{
            let v = (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[$i & 15])
                .rotate_left(1);
            w[$i & 15] = v;
            v
        }};
    }
    macro_rules! ch {
        ($b:ident, $c:ident, $d:ident) => {
            $d ^ ($b & ($c ^ $d))
        };
    }
    macro_rules! parity {
        ($b:ident, $c:ident, $d:ident) => {
            $b ^ $c ^ $d
        };
    }
    macro_rules! maj {
        ($b:ident, $c:ident, $d:ident) => {
            ($b & $c) | ($d & ($b | $c))
        };
    }
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:expr, $w:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f!($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add($w);
            $b = $b.rotate_left(30);
        };
    }
    macro_rules! five {
        ($i:expr, $f:ident, $k:expr, $w:ident) => {
            round!(a, b, c, d, e, $f, $k, $w!($i));
            round!(e, a, b, c, d, $f, $k, $w!($i + 1));
            round!(d, e, a, b, c, $f, $k, $w!($i + 2));
            round!(c, d, e, a, b, $f, $k, $w!($i + 3));
            round!(b, c, d, e, a, $f, $k, $w!($i + 4));
        };
    }

    five!(0, ch, 0x5A827999, load);
    five!(5, ch, 0x5A827999, load);
    five!(10, ch, 0x5A827999, load);
    round!(a, b, c, d, e, ch, 0x5A827999, load!(15));
    round!(e, a, b, c, d, ch, 0x5A827999, next!(16));
    round!(d, e, a, b, c, ch, 0x5A827999, next!(17));
    round!(c, d, e, a, b, ch, 0x5A827999, next!(18));
    round!(b, c, d, e, a, ch, 0x5A827999, next!(19));
    five!(20, parity, 0x6ED9EBA1, next);
    five!(25, parity, 0x6ED9EBA1, next);
    five!(30, parity, 0x6ED9EBA1, next);
    five!(35, parity, 0x6ED9EBA1, next);
    five!(40, maj, 0x8F1BBCDC, next);
    five!(45, maj, 0x8F1BBCDC, next);
    five!(50, maj, 0x8F1BBCDC, next);
    five!(55, maj, 0x8F1BBCDC, next);
    five!(60, parity, 0xCA62C1D6, next);
    five!(65, parity, 0xCA62C1D6, next);
    five!(70, parity, 0xCA62C1D6, next);
    five!(75, parity, 0xCA62C1D6, next);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook FIPS 180-1 block function: an 80-word schedule and a
    /// round loop choosing its function and constant by index. The
    /// unrolled [`compress`] must agree with it on every input.
    fn reference_compress(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }

    /// SHA-1 of `data` padded by hand and run through
    /// [`reference_compress`], sharing no code with [`Sha1`].
    fn reference_digest(data: &[u8]) -> [u8; 20] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = Sha1::new().state;
        for block in msg.chunks_exact(64) {
            reference_compress(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 20];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    proptest! {
        #[test]
        fn unrolled_compress_matches_the_reference(
            block in prop::collection::vec(any::<u8>(), 64..65),
            state in prop::collection::vec(any::<u64>().prop_map(|x| x as u32), 5..6),
        ) {
            let block: [u8; 64] = block.try_into().unwrap();
            let mut fast: [u32; 5] = state.clone().try_into().unwrap();
            let mut slow = fast;
            compress(&mut fast, &block);
            reference_compress(&mut slow, &block);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn chunked_hashing_matches_the_reference(
            data in prop::collection::vec(any::<u8>(), 0..600),
            cuts in prop::collection::vec(any::<u8>().prop_map(|b| 1 + b as usize % 150), 1..8),
        ) {
            let mut h = Sha1::new();
            let mut rest = &data[..];
            for &cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                h.update(head);
                rest = tail;
            }
            prop_assert_eq!(h.finalize(), reference_digest(&data));
        }
    }

    fn hex(data: &[u8]) -> String {
        ObjectId::hash_bytes(data).to_hex()
    }

    /// Known-answer tests from FIPS 180-1 / RFC 3174.
    #[test]
    fn sha1_test_vectors() {
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            hex(b"The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn sha1_million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        let id = ObjectId(h.finalize());
        assert_eq!(id.to_hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u32..10_000).map(|i| (i % 251) as u8).collect();
        // Hash in awkward chunk sizes crossing block boundaries.
        for chunk_size in [1, 7, 63, 64, 65, 127, 1000] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk_size) {
                h.update(c);
            }
            assert_eq!(
                ObjectId(h.finalize()),
                ObjectId::hash_bytes(&data),
                "chunk {chunk_size}"
            );
        }
    }

    #[test]
    fn git_blob_framing_matches_real_git() {
        // `echo -n 'hello' | git hash-object --stdin` == b6fc4c620b67d95f953a5c1c1230aaab5db5a1b0
        let mut h = Sha1::new();
        h.update(b"blob 5\0hello");
        assert_eq!(
            ObjectId(h.finalize()).to_hex(),
            "b6fc4c620b67d95f953a5c1c1230aaab5db5a1b0"
        );
    }

    #[test]
    fn hex_round_trip() {
        let id = ObjectId::hash_bytes(b"x");
        assert_eq!(ObjectId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(ObjectId::from_hex("xyz"), None);
        assert_eq!(ObjectId::from_hex(&"g".repeat(40)), None);
        assert_eq!(id.short().len(), 7);
    }

    #[test]
    fn zero_sentinel() {
        assert_eq!(ObjectId::ZERO.to_hex(), "0".repeat(40));
    }
}
