//! Hostile-input generators shared by the decoder fuzz batteries
//! (`sql_fuzz`, `json_fuzz`): byte noise, truncation at every offset,
//! single-byte mutation, window deletion and nesting ladders. Every one is
//! a pure function of its arguments, so a failure names the input that
//! caused it and replays.
#![allow(dead_code)] // each battery uses its own subset

/// Lossy-UTF-8 text of `len` pseudo-random bytes (splitmix64 over `seed`).
pub fn byte_noise(seed: u64, len: usize) -> String {
    let mut state = seed;
    let bytes: Vec<u8> = (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every proper prefix of `text` that ends on a character boundary,
/// shortest first (the empty prefix included).
pub fn truncations(text: &str) -> impl Iterator<Item = &str> {
    text.char_indices().map(move |(offset, _)| &text[..offset])
}

/// Bytes a decoder is most likely to treat specially.
pub const HOSTILE_BYTES: [u8; 12] =
    [0x00, b'"', b'\\', b'[', b']', b'{', b'}', b',', b':', b'-', b'e', 0xFF];

/// `text` with the byte at `offset` replaced by `byte`, re-read as lossy
/// UTF-8 (a mutation may split a multi-byte character).
pub fn with_byte(text: &str, offset: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    bytes[offset] = byte;
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `text` with the window `[start, start + len)` deleted (clamped to the
/// text, lossy where the cut splits a character).
pub fn without_window(text: &str, start: usize, len: usize) -> String {
    let bytes = text.as_bytes();
    let start = start.min(bytes.len());
    let end = (start + len).min(bytes.len());
    String::from_utf8_lossy(&[&bytes[..start], &bytes[end..]].concat()).into_owned()
}

/// `open` repeated 1, 2, 4, … times, up to `max_bytes` of text: unclosed
/// nesting at every scale a recursive decoder has to refuse.
pub fn nesting_ladder(open: &str, max_bytes: usize) -> impl Iterator<Item = String> + '_ {
    std::iter::successors(Some(1usize), |depth| Some(depth * 2))
        .take_while(move |depth| depth * open.len() <= max_bytes)
        .map(move |depth| open.repeat(depth))
}
