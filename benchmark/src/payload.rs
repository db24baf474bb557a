//! Self-describing block payloads: every byte of a block is a function
//! of `(key, version)`, so a reply can be checked without the client
//! remembering what it wrote.

use sievestore_node::Block;
use sievestore_types::mix64;

const WORDS: usize = std::mem::size_of::<Block>() / 8;

fn word(key: u64, version: u64, i: usize) -> u64 {
    match i {
        0 => key,
        1 => version,
        _ => mix64(key ^ version.rotate_left(17) ^ i as u64),
    }
}

/// The block `key` holds after its `version`-th write (versions start
/// at 1; a never-written block is all zeroes and is not a valid payload).
pub fn fill(key: u64, version: u64, out: &mut Block) {
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&word(key, version, i).to_le_bytes());
    }
}

/// The version `data` carries, if it is an intact payload of `key`.
pub fn check(key: u64, data: &[u8]) -> Option<u64> {
    if data.len() != WORDS * 8 {
        return None;
    }
    let read = |i: usize| u64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    let version = read(1);
    if read(0) != key || version == 0 {
        return None;
    }
    (2..WORDS)
        .all(|i| read(i) == word(key, version, i))
        .then_some(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_and_rejects_damage() {
        let mut block = [0u8; 512];
        assert_eq!(check(9, &block), None, "zero block is not a payload");
        fill(9, 3, &mut block);
        assert_eq!(check(9, &block), Some(3));
        assert_eq!(check(10, &block), None, "wrong key");
        block[300] ^= 1;
        assert_eq!(check(9, &block), None, "flipped bit");
    }
}
