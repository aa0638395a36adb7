//! Hostile-input generators shared by the decoder fuzz batteries
//! (`sql_fuzz`, `json_fuzz`, `wire_fuzz`): byte noise, truncation at every
//! offset, single-byte mutation, window deletion and nesting ladders — over
//! raw bytes for binary decoders, and as lossy UTF-8 text for text ones.
//! Every one is a pure function of its arguments, so a failure names the
//! input that caused it and replays. [`strata`] holds the reference the
//! determinism suites pin the strata pass against, and a reader-backed
//! shard to sweep it over.
#![allow(dead_code)] // each battery uses its own subset

pub mod strata;

/// `len` pseudo-random bytes (splitmix64 over `seed`).
pub fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// Lossy-UTF-8 text of `len` pseudo-random bytes ([`noise`]).
pub fn byte_noise(seed: u64, len: usize) -> String {
    String::from_utf8_lossy(&noise(seed, len)).into_owned()
}

/// Every proper prefix of `bytes`, shortest first (the empty prefix
/// included).
pub fn prefixes(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..bytes.len()).map(move |cut| &bytes[..cut])
}

/// Every proper prefix of `text` that ends on a character boundary,
/// shortest first (the empty prefix included).
pub fn truncations(text: &str) -> impl Iterator<Item = &str> {
    text.char_indices().map(move |(offset, _)| &text[..offset])
}

/// Bytes a text decoder is most likely to treat specially.
pub const HOSTILE_BYTES: [u8; 12] =
    [0x00, b'"', b'\\', b'[', b']', b'{', b'}', b',', b':', b'-', b'e', 0xFF];

/// `bytes` with the byte at `offset` replaced by `byte`.
pub fn mutated(bytes: &[u8], offset: usize, byte: u8) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    bytes[offset] = byte;
    bytes
}

/// `text` with the byte at `offset` replaced by `byte`, re-read as lossy
/// UTF-8 (a mutation may split a multi-byte character).
pub fn with_byte(text: &str, offset: usize, byte: u8) -> String {
    String::from_utf8_lossy(&mutated(text.as_bytes(), offset, byte)).into_owned()
}

/// `bytes` with the window `[start, start + len)` deleted (clamped to the
/// input).
pub fn deleted(bytes: &[u8], start: usize, len: usize) -> Vec<u8> {
    let start = start.min(bytes.len());
    let end = (start + len).min(bytes.len());
    [&bytes[..start], &bytes[end..]].concat()
}

/// `text` with the window `[start, start + len)` deleted (clamped to the
/// text, lossy where the cut splits a character).
pub fn without_window(text: &str, start: usize, len: usize) -> String {
    String::from_utf8_lossy(&deleted(text.as_bytes(), start, len)).into_owned()
}

/// `open` repeated 1, 2, 4, … times, up to `max_bytes` of text: unclosed
/// nesting at every scale a recursive decoder has to refuse.
pub fn nesting_ladder(open: &str, max_bytes: usize) -> impl Iterator<Item = String> + '_ {
    std::iter::successors(Some(1usize), |depth| Some(depth * 2))
        .take_while(move |depth| depth * open.len() <= max_bytes)
        .map(move |depth| open.repeat(depth))
}
