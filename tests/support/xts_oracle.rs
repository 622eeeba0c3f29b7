//! Scalar XTS reference (IEEE 1619) for equivalence tests.
//!
//! One `encrypt_in_place`/`decrypt_in_place` call per block and the
//! tweak doubled by α one byte at a time: the plainest reading of the
//! standard, sharing no code with `rijndael::aead::Xts` (which carries
//! the tweak as a `u128` and batches 64-block spans). Included by
//! `tests/aead_kats.rs` and by the service's wire tests.

use rijndael::BlockCipher;

/// Multiplies a tweak by α in the little-endian XTS convention: shift
/// the 128-bit string left by one bit, byte by byte from byte 0, and
/// fold a carry out of byte 15 back into byte 0 as 0x87.
pub fn mul_alpha(t: &mut [u8; 16]) {
    let mut carry = 0u8;
    for byte in t.iter_mut() {
        let next = *byte >> 7;
        *byte = (*byte << 1) | carry;
        carry = next;
    }
    t[0] ^= 0x87 * carry;
}

/// `block ← C(block ⊕ t) ⊕ t`, with `C` the data cipher in the given
/// direction.
fn xex<C: BlockCipher>(cipher: &C, block: &mut [u8], t: &[u8; 16], decrypt: bool) {
    for (b, k) in block.iter_mut().zip(t) {
        *b ^= k;
    }
    if decrypt {
        cipher.decrypt_in_place(block);
    } else {
        cipher.encrypt_in_place(block);
    }
    for (b, k) in block.iter_mut().zip(t) {
        *b ^= k;
    }
}

/// Encrypts (or, with `decrypt`, decrypts) one sector of at least 16
/// bytes in place, stealing ciphertext for a ragged tail.
///
/// # Panics
///
/// When `data` is shorter than one block.
pub fn sector<C: BlockCipher>(
    data_cipher: &C,
    tweak_cipher: &C,
    number: u64,
    data: &mut [u8],
    decrypt: bool,
) {
    assert!(data.len() >= 16, "an XTS sector holds at least one block");
    let mut t = [0u8; 16];
    t[..8].copy_from_slice(&number.to_le_bytes());
    tweak_cipher.encrypt_in_place(&mut t);

    let tail = data.len() % 16;
    let bulk = data.len() / 16 - usize::from(tail != 0);
    for block in data[..bulk * 16].chunks_exact_mut(16) {
        xex(data_cipher, block, &t, decrypt);
        mul_alpha(&mut t);
    }
    if tail == 0 {
        return;
    }
    // Ciphertext stealing: encryption uses (T_m-1, T_m) for the last
    // full block and the stitched block, decryption swaps them.
    let mut next = t;
    mul_alpha(&mut next);
    let (first, second) = if decrypt { (next, t) } else { (t, next) };
    let split = bulk * 16;
    let mut cc: [u8; 16] = data[split..split + 16].try_into().unwrap();
    xex(data_cipher, &mut cc, &first, decrypt);
    let mut pp = cc;
    pp[..tail].copy_from_slice(&data[split + 16..]);
    xex(data_cipher, &mut pp, &second, decrypt);
    data[split..split + 16].copy_from_slice(&pp);
    data[split + 16..].copy_from_slice(&cc[..tail]);
}
