//! Block-cipher modes of operation over any [`BlockCipher`].
//!
//! The paper positions the IP for "backbone communication channels" and
//! "Internet Banking" traffic; real deployments wrap the raw block cipher
//! in a mode. ECB, CBC, CTR, CFB and OFB are provided, generic over the
//! cipher so the same workload code drives the software reference, the
//! T-table baseline and the cycle-accurate hardware model.
//!
//! Each mode is a set of generic inherent functions (`Ecb::encrypt`,
//! `Cbc::decrypt`, `Ctr::apply`, ...) over `C: BlockCipher + ?Sized`, so
//! the same functions take a concrete cipher or a `&dyn BlockCipher`. A
//! ragged buffer in a block mode is a [`LengthError`]; an IV that is not
//! one cipher block is a caller bug and panics.
//!
//! Every mode call also feeds the process-wide telemetry registry
//! ([`telemetry::Registry::global`]): counters
//! `rijndael.mode.<name>.blocks` and `rijndael.mode.<name>.bytes` tally
//! work per mode, one relaxed atomic add per call.

use core::fmt;

use crate::cipher::{BatchCipher, BlockCipher};

/// Largest block this crate's ciphers produce (`Rijndael<8>`: 32 bytes).
/// The chained modes keep their chaining state in fixed stack buffers of
/// this size instead of heap scratch, so their per-call cost is zero
/// allocations no matter how much data streams through.
const MAX_BLOCK: usize = 32;

/// Keystream blocks prepared per batched CTR step: one wide bitsliced
/// pass ([`crate::bitslice::WIDE`]), a multiple of the 8-block granule.
const CTR_BATCH: usize = crate::bitslice::WIDE;

/// Error for buffers whose length does not fit the requested mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthError {
    /// Offending buffer length.
    pub len: usize,
    /// Required granularity in bytes.
    pub block: usize,
}

impl fmt::Display for LengthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer length {} is not a multiple of the {}-byte block",
            self.len, self.block
        )
    }
}

impl std::error::Error for LengthError {}

/// Global-registry instrumentation for the mode layer: one counter pair
/// (blocks, bytes) per mode, resolved once per process and cached so the
/// per-call cost is a relaxed atomic add. `pub(crate)` so the AEAD layer
/// ([`crate::aead`]) records its modes (gcm/xts/kw) through the same
/// naming scheme.
pub(crate) mod stats {
    use std::sync::OnceLock;
    use telemetry::{Counter, Registry};

    pub(crate) struct ModeStats {
        blocks: Counter,
        bytes: Counter,
    }

    impl ModeStats {
        fn new(mode: &str) -> Self {
            let reg = Registry::global();
            ModeStats {
                blocks: reg.counter(&format!("rijndael.mode.{mode}.blocks")),
                bytes: reg.counter(&format!("rijndael.mode.{mode}.bytes")),
            }
        }

        /// Records one mode call over `bytes` bytes of `block`-byte
        /// blocks (partial final blocks count as one block).
        #[inline]
        pub(crate) fn record(&self, bytes: usize, block: usize) {
            self.blocks.add(bytes.div_ceil(block.max(1)) as u64);
            self.bytes.add(bytes as u64);
        }
    }

    macro_rules! mode_stats {
        ($fn_name:ident, $name:literal) => {
            pub(crate) fn $fn_name() -> &'static ModeStats {
                static STATS: OnceLock<ModeStats> = OnceLock::new();
                STATS.get_or_init(|| ModeStats::new($name))
            }
        };
    }
    mode_stats!(ecb, "ecb");
    mode_stats!(cbc, "cbc");
    mode_stats!(ctr, "ctr");
    mode_stats!(cfb, "cfb");
    mode_stats!(ofb, "ofb");
    mode_stats!(gcm, "gcm");
    mode_stats!(xts, "xts");
    mode_stats!(kw, "kw");
}

/// Electronic codebook: each block enciphered independently.
///
/// # Examples
///
/// ```
/// use rijndael::{Aes128, modes::Ecb};
///
/// let aes = Aes128::new(&[0u8; 16]);
/// let mut data = vec![0u8; 32];
/// Ecb::encrypt(&aes, &mut data)?;
/// Ecb::decrypt(&aes, &mut data)?;
/// assert_eq!(data, vec![0u8; 32]);
/// # Ok::<(), rijndael::modes::LengthError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Ecb;

impl Ecb {
    /// Encrypts `data` in place.
    ///
    /// # Errors
    ///
    /// Returns [`LengthError`] unless `data.len()` is a multiple of the
    /// cipher's block length.
    pub fn encrypt<C: BlockCipher + ?Sized>(
        cipher: &C,
        data: &mut [u8],
    ) -> Result<(), LengthError> {
        let bl = cipher.block_len();
        if !data.len().is_multiple_of(bl) {
            return Err(LengthError {
                len: data.len(),
                block: bl,
            });
        }
        for block in data.chunks_exact_mut(bl) {
            cipher.encrypt_in_place(block);
        }
        stats::ecb().record(data.len(), bl);
        Ok(())
    }

    /// Decrypts `data` in place.
    ///
    /// # Errors
    ///
    /// Returns [`LengthError`] unless `data.len()` is a multiple of the
    /// cipher's block length.
    pub fn decrypt<C: BlockCipher + ?Sized>(
        cipher: &C,
        data: &mut [u8],
    ) -> Result<(), LengthError> {
        let bl = cipher.block_len();
        if !data.len().is_multiple_of(bl) {
            return Err(LengthError {
                len: data.len(),
                block: bl,
            });
        }
        for block in data.chunks_exact_mut(bl) {
            cipher.decrypt_in_place(block);
        }
        stats::ecb().record(data.len(), bl);
        Ok(())
    }

    /// Encrypts `data` in place through the cipher's batch path: the
    /// whole payload is handed to [`BatchCipher::encrypt_blocks`] at
    /// once, so a bitsliced cipher runs full multi-block passes instead
    /// of one [`BlockCipher`] call per block.
    ///
    /// # Errors
    ///
    /// Returns [`LengthError`] unless `data.len()` is a multiple of 16.
    pub fn encrypt_batched<C: BatchCipher + ?Sized>(
        cipher: &C,
        data: &mut [u8],
    ) -> Result<(), LengthError> {
        let (blocks, rest) = data.as_chunks_mut::<16>();
        if !rest.is_empty() {
            return Err(LengthError {
                len: blocks.len() * 16 + rest.len(),
                block: 16,
            });
        }
        cipher.encrypt_blocks(blocks);
        stats::ecb().record(blocks.len() * 16, 16);
        Ok(())
    }

    /// Decrypts `data` in place through the cipher's batch path (see
    /// [`Ecb::encrypt_batched`]).
    ///
    /// # Errors
    ///
    /// Returns [`LengthError`] unless `data.len()` is a multiple of 16.
    pub fn decrypt_batched<C: BatchCipher + ?Sized>(
        cipher: &C,
        data: &mut [u8],
    ) -> Result<(), LengthError> {
        let (blocks, rest) = data.as_chunks_mut::<16>();
        if !rest.is_empty() {
            return Err(LengthError {
                len: blocks.len() * 16 + rest.len(),
                block: 16,
            });
        }
        cipher.decrypt_blocks(blocks);
        stats::ecb().record(blocks.len() * 16, 16);
        Ok(())
    }
}

/// Cipher block chaining with an explicit IV.
#[derive(Debug, Clone, Copy)]
pub struct Cbc;

impl Cbc {
    /// Encrypts `data` in place under `iv`.
    ///
    /// # Errors
    ///
    /// Returns [`LengthError`] unless `data.len()` is a multiple of the
    /// block length.
    ///
    /// # Panics
    ///
    /// Panics if `iv.len()` differs from the cipher's block length, or if
    /// that length exceeds `MAX_BLOCK` (32) bytes.
    pub fn encrypt<C: BlockCipher + ?Sized>(
        cipher: &C,
        iv: &[u8],
        data: &mut [u8],
    ) -> Result<(), LengthError> {
        let bl = cipher.block_len();
        assert_eq!(iv.len(), bl, "IV must be one block long");
        assert!(bl <= MAX_BLOCK, "block length exceeds chaining scratch");
        if !data.len().is_multiple_of(bl) {
            return Err(LengthError {
                len: data.len(),
                block: bl,
            });
        }
        let mut chain = [0u8; MAX_BLOCK];
        chain[..bl].copy_from_slice(iv);
        for block in data.chunks_exact_mut(bl) {
            for (b, c) in block.iter_mut().zip(&chain) {
                *b ^= c;
            }
            cipher.encrypt_in_place(block);
            chain[..bl].copy_from_slice(block);
        }
        stats::cbc().record(data.len(), bl);
        Ok(())
    }

    /// Decrypts `data` in place under `iv`.
    ///
    /// # Errors
    ///
    /// Returns [`LengthError`] unless `data.len()` is a multiple of the
    /// block length.
    ///
    /// # Panics
    ///
    /// Panics if `iv.len()` differs from the cipher's block length, or if
    /// that length exceeds `MAX_BLOCK` (32) bytes.
    pub fn decrypt<C: BlockCipher + ?Sized>(
        cipher: &C,
        iv: &[u8],
        data: &mut [u8],
    ) -> Result<(), LengthError> {
        let bl = cipher.block_len();
        assert_eq!(iv.len(), bl, "IV must be one block long");
        assert!(bl <= MAX_BLOCK, "block length exceeds chaining scratch");
        if !data.len().is_multiple_of(bl) {
            return Err(LengthError {
                len: data.len(),
                block: bl,
            });
        }
        let mut chain = [0u8; MAX_BLOCK];
        chain[..bl].copy_from_slice(iv);
        let mut next_chain = [0u8; MAX_BLOCK];
        for block in data.chunks_exact_mut(bl) {
            next_chain[..bl].copy_from_slice(block);
            cipher.decrypt_in_place(block);
            for (b, c) in block.iter_mut().zip(&chain) {
                *b ^= c;
            }
            core::mem::swap(&mut chain, &mut next_chain);
        }
        stats::cbc().record(data.len(), bl);
        Ok(())
    }
}

/// Counter mode: a stream cipher built from block encryptions of a counter.
///
/// Follows the NIST SP 800-38A convention: the nonce is the *initial
/// counter block* and the standard incrementing function adds one to the
/// whole block, big-endian, wrapping modulo 2^(8·block) — carries
/// propagate past the low 32-bit word into the nonce bytes.
///
/// Works on any data length; decryption is the same operation as
/// encryption. Keystream blocks are independent, so a stream can be
/// produced in parallel chunks via [`Ctr::apply_at`] (the multi-core
/// engine shards the same way, through [`Ctr::fill_counter_blocks`]).
#[derive(Debug, Clone, Copy)]
pub struct Ctr;

/// Adds `inc` to a big-endian counter block in place, wrapping modulo
/// 2^(8·len) — the standard incrementing function of SP 800-38A §B.1
/// applied to the full block width.
fn counter_add(block: &mut [u8], mut inc: u128) {
    let mut carry = 0u16;
    for b in block.iter_mut().rev() {
        let sum = u16::from(*b) + ((inc & 0xFF) as u16) + carry;
        *b = sum as u8;
        carry = sum >> 8;
        inc >>= 8;
        if inc == 0 && carry == 0 {
            break;
        }
    }
}

impl Ctr {
    /// XORs the keystream for initial counter block `nonce` into `data`.
    ///
    /// # Panics
    ///
    /// Panics if `nonce.len()` differs from the cipher's block length.
    pub fn apply<C: BlockCipher + ?Sized>(cipher: &C, nonce: &[u8], data: &mut [u8]) {
        Self::apply_at(cipher, nonce, 0, data);
    }

    /// XORs the keystream into `data`, starting `first_block` blocks into
    /// the stream: block `i` of `data` is XORed with the encryption of
    /// `nonce + first_block + i` (wrapping). `apply_at(c, n, 0, data)` is
    /// [`Ctr::apply`]; splitting `data` at any block boundary and applying
    /// each piece with the matching offset produces identical bytes, which
    /// is what makes CTR shardable across cores.
    ///
    /// # Panics
    ///
    /// Panics if `nonce.len()` differs from the cipher's block length, or
    /// if that length exceeds `MAX_BLOCK` (32) bytes.
    pub fn apply_at<C: BlockCipher + ?Sized>(
        cipher: &C,
        nonce: &[u8],
        first_block: u128,
        data: &mut [u8],
    ) {
        let bl = cipher.block_len();
        assert_eq!(nonce.len(), bl, "nonce must be one block long");
        assert!(bl <= MAX_BLOCK, "block length exceeds counter scratch");
        let mut counter_block = [0u8; MAX_BLOCK];
        counter_block[..bl].copy_from_slice(nonce);
        counter_add(&mut counter_block[..bl], first_block);
        let mut keystream = [0u8; MAX_BLOCK];
        for chunk in data.chunks_mut(bl) {
            keystream[..bl].copy_from_slice(&counter_block[..bl]);
            cipher.encrypt_in_place(&mut keystream[..bl]);
            for (b, k) in chunk.iter_mut().zip(&keystream) {
                *b ^= k;
            }
            counter_add(&mut counter_block[..bl], 1);
        }
        stats::ctr().record(data.len(), bl);
    }

    /// XORs the keystream into `data` through the cipher's batch path:
    /// counter blocks are precomputed `CTR_BATCH` (one
    /// [`WIDE`](crate::bitslice::WIDE) batch) at a time (via the same
    /// incrementing function as [`Ctr::apply_at`]) and encrypted in one
    /// [`BatchCipher::encrypt_blocks`] call, so a bitsliced cipher
    /// fills whole passes. Byte-identical to
    /// `apply_at(cipher, nonce, first_block, data)` on any data length.
    pub fn apply_batched<C: BatchCipher + ?Sized>(
        cipher: &C,
        nonce: &[u8; 16],
        first_block: u128,
        data: &mut [u8],
    ) {
        let mut keystream = [[0u8; 16]; CTR_BATCH];
        let mut index = first_block;
        for chunk in data.chunks_mut(CTR_BATCH * 16) {
            let nblocks = chunk.len().div_ceil(16);
            let batch = &mut keystream[..nblocks];
            Self::fill_counter_blocks(nonce, index, batch);
            cipher.encrypt_blocks(batch);
            for (b, k) in chunk.iter_mut().zip(batch.as_flattened()) {
                *b ^= k;
            }
            index = index.wrapping_add(nblocks as u128);
        }
        stats::ctr().record(data.len(), 16);
    }

    /// Fills `out[i]` with counter block `nonce + first_block + i` under
    /// the standard incrementing function (wrapping modulo 2^128) — the
    /// counter precompute feeding [`Ctr::apply_batched`], shared with the
    /// multi-core engine's CTR sharding.
    pub fn fill_counter_blocks(nonce: &[u8; 16], first_block: u128, out: &mut [[u8; 16]]) {
        let mut blocks = out.iter_mut();
        let Some(first) = blocks.next() else {
            return;
        };
        first.copy_from_slice(nonce);
        counter_add(first, first_block);
        let mut prev = *first;
        for block in blocks {
            counter_add(&mut prev, 1);
            block.copy_from_slice(&prev);
        }
    }
}

/// Cipher feedback (full-block CFB).
#[derive(Debug, Clone, Copy)]
pub struct Cfb;

impl Cfb {
    /// Encrypts `data` in place under `iv`. Handles a partial final block.
    ///
    /// # Panics
    ///
    /// Panics if `iv.len()` differs from the cipher's block length, or if
    /// that length exceeds `MAX_BLOCK` (32) bytes.
    pub fn encrypt<C: BlockCipher + ?Sized>(cipher: &C, iv: &[u8], data: &mut [u8]) {
        let bl = cipher.block_len();
        assert_eq!(iv.len(), bl, "IV must be one block long");
        assert!(bl <= MAX_BLOCK, "block length exceeds feedback scratch");
        let mut feedback = [0u8; MAX_BLOCK];
        feedback[..bl].copy_from_slice(iv);
        for chunk in data.chunks_mut(bl) {
            cipher.encrypt_in_place(&mut feedback[..bl]);
            for (b, k) in chunk.iter_mut().zip(&feedback) {
                *b ^= k;
            }
            feedback[..chunk.len()].copy_from_slice(chunk);
        }
        stats::cfb().record(data.len(), bl);
    }

    /// Decrypts `data` in place under `iv`.
    ///
    /// # Panics
    ///
    /// Panics if `iv.len()` differs from the cipher's block length, or if
    /// that length exceeds `MAX_BLOCK` (32) bytes.
    pub fn decrypt<C: BlockCipher + ?Sized>(cipher: &C, iv: &[u8], data: &mut [u8]) {
        let bl = cipher.block_len();
        assert_eq!(iv.len(), bl, "IV must be one block long");
        assert!(bl <= MAX_BLOCK, "block length exceeds feedback scratch");
        let mut feedback = [0u8; MAX_BLOCK];
        feedback[..bl].copy_from_slice(iv);
        let mut ct = [0u8; MAX_BLOCK];
        for chunk in data.chunks_mut(bl) {
            ct[..chunk.len()].copy_from_slice(chunk);
            cipher.encrypt_in_place(&mut feedback[..bl]);
            for (b, k) in chunk.iter_mut().zip(&feedback) {
                *b ^= k;
            }
            feedback[..chunk.len()].copy_from_slice(&ct[..chunk.len()]);
        }
        stats::cfb().record(data.len(), bl);
    }
}

/// Output feedback: a synchronous stream cipher. Encryption and decryption
/// are the same operation.
#[derive(Debug, Clone, Copy)]
pub struct Ofb;

impl Ofb {
    /// XORs the OFB keystream for `iv` into `data`.
    ///
    /// # Panics
    ///
    /// Panics if `iv.len()` differs from the cipher's block length, or if
    /// that length exceeds `MAX_BLOCK` (32) bytes.
    pub fn apply<C: BlockCipher + ?Sized>(cipher: &C, iv: &[u8], data: &mut [u8]) {
        let bl = cipher.block_len();
        assert_eq!(iv.len(), bl, "IV must be one block long");
        assert!(bl <= MAX_BLOCK, "block length exceeds feedback scratch");
        let mut feedback = [0u8; MAX_BLOCK];
        feedback[..bl].copy_from_slice(iv);
        for chunk in data.chunks_mut(bl) {
            cipher.encrypt_in_place(&mut feedback[..bl]);
            for (b, k) in chunk.iter_mut().zip(&feedback) {
                *b ^= k;
            }
        }
        stats::ofb().record(data.len(), bl);
    }
}

/// Appends PKCS#7 padding so the buffer becomes a whole number of blocks.
///
/// # Panics
///
/// Panics if `block_len` is 0 or greater than 255.
pub fn pkcs7_pad(data: &mut Vec<u8>, block_len: usize) {
    assert!(block_len > 0 && block_len <= 255, "invalid block length");
    let pad = block_len - data.len() % block_len;
    data.extend(std::iter::repeat_n(pad as u8, pad));
}

/// Removes PKCS#7 padding, returning the unpadded length, or `None` when
/// the padding is malformed.
#[must_use]
pub fn pkcs7_unpad(data: &[u8], block_len: usize) -> Option<usize> {
    if data.is_empty() || !data.len().is_multiple_of(block_len) {
        return None;
    }
    let pad = *data.last()? as usize;
    if pad == 0 || pad > block_len || pad > data.len() {
        return None;
    }
    let body = data.len() - pad;
    data[body..]
        .iter()
        .all(|&b| b as usize == pad)
        .then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;

    fn cipher() -> Aes128 {
        Aes128::new(&core::array::from_fn(|i| i as u8))
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(73).wrapping_add(5))
            .collect()
    }

    #[test]
    fn ecb_roundtrip_and_determinism() {
        let c = cipher();
        let pt = sample(64);
        let mut a = pt.clone();
        Ecb::encrypt(&c, &mut a).unwrap();
        // Identical plaintext blocks encrypt identically in ECB.
        let half = sample(16);
        let mut t = [half.clone(), half].concat();
        Ecb::encrypt(&c, &mut t).unwrap();
        assert_eq!(&t[..16], &t[16..]);
        Ecb::decrypt(&c, &mut a).unwrap();
        assert_eq!(a, pt);
    }

    #[test]
    fn ecb_rejects_ragged_lengths() {
        let c = cipher();
        let iv = [0u8; 16];
        let mut data = vec![0u8; 17];
        let err = Ecb::encrypt(&c, &mut data).unwrap_err();
        assert_eq!(err, LengthError { len: 17, block: 16 });
        assert!(err.to_string().contains("not a multiple"));
        // The other block modes reject the same buffer the same way.
        for err in [
            Ecb::decrypt(&c, &mut data),
            Cbc::encrypt(&c, &iv, &mut data),
            Cbc::decrypt(&c, &iv, &mut data),
        ] {
            assert_eq!(err, Err(LengthError { len: 17, block: 16 }));
        }
    }

    #[test]
    fn cbc_roundtrip_and_chaining() {
        let c = cipher();
        let iv = sample(16);
        let pt = vec![0u8; 48]; // three identical blocks
        let mut ct = pt.clone();
        Cbc::encrypt(&c, &iv, &mut ct).unwrap();
        // Chaining must break the ECB pattern.
        assert_ne!(&ct[..16], &ct[16..32]);
        assert_ne!(&ct[16..32], &ct[32..48]);
        Cbc::decrypt(&c, &iv, &mut ct).unwrap();
        assert_eq!(ct, pt);
    }

    #[test]
    fn cbc_iv_sensitivity() {
        let c = cipher();
        let pt = sample(32);
        let mut a = pt.clone();
        let mut b = pt.clone();
        Cbc::encrypt(&c, &[0u8; 16], &mut a).unwrap();
        Cbc::encrypt(&c, &[1u8; 16], &mut b).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn ctr_sp800_38a_f5_known_answer() {
        // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt: key 2b7e...4f3c,
        // initial counter block f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff. This
        // vector only passes when the *whole* counter block increments —
        // the old code replaced the low word with 0,1,2,3.
        let key = [
            0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF,
            0x4F, 0x3C,
        ];
        let nonce: [u8; 16] = core::array::from_fn(|i| 0xF0 + i as u8);
        let mut data = [
            0x6B, 0xC1, 0xBE, 0xE2, 0x2E, 0x40, 0x9F, 0x96, 0xE9, 0x3D, 0x7E, 0x11, 0x73, 0x93,
            0x17, 0x2A, 0xAE, 0x2D, 0x8A, 0x57, 0x1E, 0x03, 0xAC, 0x9C, 0x9E, 0xB7, 0x6F, 0xAC,
            0x45, 0xAF, 0x8E, 0x51, 0x30, 0xC8, 0x1C, 0x46, 0xA3, 0x5C, 0xE4, 0x11, 0xE5, 0xFB,
            0xC1, 0x19, 0x1A, 0x0A, 0x52, 0xEF, 0xF6, 0x9F, 0x24, 0x45, 0xDF, 0x4F, 0x9B, 0x17,
            0xAD, 0x2B, 0x41, 0x7B, 0xE6, 0x6C, 0x37, 0x10,
        ];
        Ctr::apply(&Aes128::new(&key), &nonce, &mut data);
        let expect = [
            0x87, 0x4D, 0x61, 0x91, 0xB6, 0x20, 0xE3, 0x26, 0x1B, 0xEF, 0x68, 0x64, 0x99, 0x0D,
            0xB6, 0xCE, 0x98, 0x06, 0xF6, 0x6B, 0x79, 0x70, 0xFD, 0xFF, 0x86, 0x17, 0x18, 0x7B,
            0xB9, 0xFF, 0xFD, 0xFF, 0x5A, 0xE4, 0xDF, 0x3E, 0xDB, 0xD5, 0xD3, 0x5E, 0x5B, 0x4F,
            0x09, 0x02, 0x0D, 0xB0, 0x3E, 0xAB, 0x1E, 0x03, 0x1D, 0xDA, 0x2F, 0xBE, 0x03, 0xD1,
            0x79, 0x21, 0x70, 0xA0, 0xF3, 0x00, 0x9C, 0xEE,
        ];
        assert_eq!(data, expect);
    }

    #[test]
    fn ctr_carry_crosses_the_32bit_word_boundary() {
        // Initial counter ...FFFFFFFF: block 1 must carry into byte 11
        // (the byte just above the low 32-bit word), per SP 800-38A.
        let c = cipher();
        let mut nonce = [0xAAu8; 16];
        nonce[12..].fill(0xFF);
        let mut data = vec![0u8; 32]; // zero plaintext ⇒ data = keystream
        Ctr::apply(&c, &nonce, &mut data);

        let mut ctr0 = nonce;
        let mut ctr1 = [0xAAu8; 16];
        ctr1[11] = 0xAB;
        ctr1[12..].fill(0x00);
        c.encrypt_in_place(&mut ctr0);
        c.encrypt_in_place(&mut ctr1);
        assert_eq!(&data[..16], &ctr0[..]);
        assert_eq!(&data[16..], &ctr1[..], "carry must propagate past bit 32");
    }

    #[test]
    fn ctr_wraps_at_the_full_128bit_boundary() {
        // Initial counter all-FF: block 1 wraps to the all-zero block
        // (increment is modulo 2^128).
        let c = cipher();
        let mut data = vec![0u8; 32];
        Ctr::apply(&c, &[0xFFu8; 16], &mut data);

        let mut top = [0xFFu8; 16];
        let mut wrapped = [0x00u8; 16];
        c.encrypt_in_place(&mut top);
        c.encrypt_in_place(&mut wrapped);
        assert_eq!(&data[..16], &top[..]);
        assert_eq!(&data[16..], &wrapped[..], "counter must wrap mod 2^128");
    }

    #[test]
    fn ctr_chunked_apply_at_matches_one_shot() {
        // Splitting the stream at block boundaries and applying each chunk
        // with its offset must reproduce the one-shot bytes exactly.
        let c = cipher();
        let nonce: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(91));
        let pt = sample(100);
        let mut one_shot = pt.clone();
        Ctr::apply(&c, &nonce, &mut one_shot);

        let mut chunked = pt;
        let (head, rest) = chunked.split_at_mut(48); // 3 blocks
        let (mid, tail) = rest.split_at_mut(32); // 2 blocks, tail partial
        Ctr::apply_at(&c, &nonce, 0, head);
        Ctr::apply_at(&c, &nonce, 3, mid);
        Ctr::apply_at(&c, &nonce, 5, tail);
        assert_eq!(chunked, one_shot);
    }

    #[test]
    fn fill_counter_blocks_carries_and_wraps_modulo_2_128() {
        let mut out = [[0u8; 16]; 1];
        Ctr::fill_counter_blocks(&[0u8; 16], 5, &mut out);
        assert_eq!(out[0][15], 5);
        // All-FF plus one wraps to zero inside the batch.
        let mut out = [[0u8; 16]; 2];
        Ctr::fill_counter_blocks(&[0xFFu8; 16], 0, &mut out);
        assert_eq!(out, [[0xFFu8; 16], [0u8; 16]]);
        // An offset of u128::MAX lands on all-FF; the next blocks wrap
        // past it.
        let mut out = [[0u8; 16]; 3];
        Ctr::fill_counter_blocks(&[0u8; 16], u128::MAX, &mut out);
        assert_eq!(out[0], [0xFFu8; 16]);
        assert_eq!(out[1], [0u8; 16]);
        assert_eq!(out[2][15], 1, "wrapping add past u128::MAX");
    }

    #[test]
    fn ecb_batched_matches_per_block_for_every_cipher() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let reference = Aes128::new(&key);
        let sliced = crate::bitslice::Bitsliced8::new(&key);
        for blocks in [1usize, 7, 8, 9, 64, 65, 100] {
            let pt = sample(blocks * 16);
            let mut expect = pt.clone();
            Ecb::encrypt(&reference, &mut expect).unwrap();

            let mut via_ref = pt.clone();
            Ecb::encrypt_batched(&reference, &mut via_ref).unwrap();
            assert_eq!(via_ref, expect, "default batch path, {blocks} blocks");

            let mut via_sliced = pt.clone();
            Ecb::encrypt_batched(&sliced, &mut via_sliced).unwrap();
            assert_eq!(via_sliced, expect, "bitsliced batch path, {blocks} blocks");

            Ecb::decrypt_batched(&sliced, &mut via_sliced).unwrap();
            assert_eq!(via_sliced, pt, "bitsliced batch decrypt, {blocks} blocks");
        }
    }

    #[test]
    fn ecb_batched_rejects_ragged_lengths() {
        let c = cipher();
        let mut data = vec![0u8; 40];
        let err = Ecb::encrypt_batched(&c, &mut data).unwrap_err();
        assert_eq!((err.len, err.block), (40, 16));
        assert!(Ecb::decrypt_batched(&c, &mut data).is_err());
    }

    #[test]
    fn ctr_apply_batched_matches_apply_at_any_length_and_offset() {
        let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(29) ^ 0x42);
        let reference = Aes128::new(&key);
        let sliced = crate::bitslice::Bitsliced8::new(&key);
        let nonce: [u8; 16] = core::array::from_fn(|i| 0xD0 ^ (i as u8));
        for (len, offset) in [
            (1usize, 0u128),
            (15, 7),
            (16, 1),
            (100, 3),
            (64 * 16, 0),
            (64 * 16 + 40, 9),
            (3 * 64 * 16 + 1, 1 << 80),
        ] {
            let pt = sample(len);
            let mut expect = pt.clone();
            Ctr::apply_at(&reference, &nonce, offset, &mut expect);
            let mut got = pt.clone();
            Ctr::apply_batched(&sliced, &nonce, offset, &mut got);
            assert_eq!(got, expect, "len {len} offset {offset}");
        }
    }

    #[test]
    fn ctr_counter_wrap_across_a_batch_boundary_known_answer() {
        // Start the counter 3 blocks below 2^128: the wrap to the all-zero
        // block happens *inside* the first precomputed batch, so the
        // batched path must carry SP 800-38A's modulo-2^128 semantics into
        // the 8-wide precompute, not just the scalar loop.
        let c = cipher();
        let sliced =
            crate::bitslice::Bitsliced8::new(&core::array::from_fn::<u8, 16, _>(|i| i as u8));
        let mut nonce = [0xFFu8; 16];
        nonce[15] = 0xFD; // nonce = 2^128 - 3
        let blocks = 20usize;

        let mut expect = vec![0u8; blocks * 16];
        Ctr::apply(&c, &nonce, &mut expect);
        let mut got = vec![0u8; blocks * 16];
        Ctr::apply_batched(&sliced, &nonce, 0, &mut got);
        assert_eq!(got, expect);

        // Keystream block 3 is the encryption of the wrapped (all-zero)
        // counter — pin it as a direct known answer too.
        let mut zero_ctr = [0u8; 16];
        c.encrypt_in_place(&mut zero_ctr);
        assert_eq!(&got[48..64], &zero_ctr[..], "wrap lands at block 3");
    }

    #[test]
    fn fill_counter_blocks_shares_increment_semantics_with_apply_at() {
        // Encrypting the filled counter blocks gives the keystream that
        // `apply_at` XORs into zeros from the same offset.
        let c = cipher();
        let nonce: [u8; 16] = core::array::from_fn(|i| 0xF0 + i as u8);
        let mut out = [[0u8; 16]; 5];
        Ctr::fill_counter_blocks(&nonce, 2, &mut out);
        for block in &mut out {
            c.encrypt_in_place(block);
        }
        let mut keystream = vec![0u8; 5 * 16];
        Ctr::apply_at(&c, &nonce, 2, &mut keystream);
        assert_eq!(out.as_flattened(), &keystream[..]);
        Ctr::fill_counter_blocks(&nonce, 0, &mut []); // empty batch is a no-op
    }

    #[test]
    fn ctr_roundtrip_any_length() {
        let c = cipher();
        for len in [0usize, 1, 15, 16, 17, 100] {
            let pt = sample(len);
            let mut data = pt.clone();
            Ctr::apply(&c, &[9u8; 16], &mut data);
            if len > 0 {
                assert_ne!(data, pt);
            }
            Ctr::apply(&c, &[9u8; 16], &mut data);
            assert_eq!(data, pt, "CTR roundtrip failed at len {len}");
        }
    }

    #[test]
    fn cfb_roundtrip_any_length() {
        let c = cipher();
        for len in [1usize, 16, 31, 32, 33] {
            let pt = sample(len);
            let mut data = pt.clone();
            Cfb::encrypt(&c, &[3u8; 16], &mut data);
            Cfb::decrypt(&c, &[3u8; 16], &mut data);
            assert_eq!(data, pt, "CFB roundtrip failed at len {len}");
        }
    }

    #[test]
    fn ofb_is_involutive() {
        let c = cipher();
        let pt = sample(50);
        let mut data = pt.clone();
        Ofb::apply(&c, &[8u8; 16], &mut data);
        Ofb::apply(&c, &[8u8; 16], &mut data);
        assert_eq!(data, pt);
    }

    #[test]
    fn ofb_keystream_is_position_dependent() {
        let c = cipher();
        let mut z = vec![0u8; 32];
        Ofb::apply(&c, &[8u8; 16], &mut z);
        assert_ne!(&z[..16], &z[16..]);
    }

    #[test]
    fn pkcs7_roundtrip() {
        for len in 0..=33usize {
            let mut data = sample(len);
            pkcs7_pad(&mut data, 16);
            assert_eq!(data.len() % 16, 0);
            assert!(data.len() > len);
            let body = pkcs7_unpad(&data, 16).unwrap();
            assert_eq!(body, len);
        }
    }

    #[test]
    fn pkcs7_rejects_malformed() {
        assert_eq!(pkcs7_unpad(&[], 16), None);
        assert_eq!(pkcs7_unpad(&[0u8; 16], 16), None); // pad byte 0
        let mut bad = vec![4u8; 16];
        bad[15] = 17; // pad > block
        assert_eq!(pkcs7_unpad(&bad, 16), None);
        let mut torn = vec![2u8; 16];
        torn[14] = 3; // inconsistent pad bytes
        assert_eq!(pkcs7_unpad(&torn, 16), None);
    }

    #[test]
    fn pkcs7_unpad_edge_cases_return_none_without_panicking() {
        // Degenerate block length: nothing can be validly padded to
        // blocks of zero bytes — must report None, never divide by zero.
        assert_eq!(pkcs7_unpad(&[1u8], 0), None);
        assert_eq!(pkcs7_unpad(&[], 0), None);
        // Ragged input (not a multiple of the block).
        assert_eq!(pkcs7_unpad(&[1u8; 17], 16), None);
        // Pad byte claims more bytes than the buffer holds.
        let mut overlong = vec![0u8; 16];
        overlong[15] = 32;
        assert_eq!(pkcs7_unpad(&overlong, 16), None);
        // A full block of pad (the empty-message encoding) is valid.
        assert_eq!(pkcs7_unpad(&[16u8; 16], 16), Some(0));
    }

    #[test]
    #[should_panic(expected = "invalid block length")]
    fn pkcs7_pad_rejects_zero_block() {
        pkcs7_pad(&mut vec![1u8, 2], 0);
    }

    #[test]
    fn mode_calls_feed_the_global_registry() {
        let c = cipher();
        let reg = telemetry::Registry::global();
        let before = reg.snapshot();
        let mut data = sample(64);
        Ecb::encrypt(&c, &mut data).unwrap();
        Ctr::apply(&c, &[1u8; 16], &mut data[..50]);
        let after = reg.snapshot();
        // Other tests share the process-wide registry, so assert on the
        // delta being at least this test's contribution.
        let d = after.delta(&before);
        assert!(d.counter("rijndael.mode.ecb.blocks").unwrap() >= 4);
        assert!(d.counter("rijndael.mode.ecb.bytes").unwrap() >= 64);
        assert!(d.counter("rijndael.mode.ctr.blocks").unwrap() >= 4);
        assert!(d.counter("rijndael.mode.ctr.bytes").unwrap() >= 50);
    }
}
