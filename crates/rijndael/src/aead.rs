//! Authenticated encryption and disk/key-protection modes: AES-GCM
//! (NIST SP 800-38D), XTS-AES (IEEE 1619), and AES Key Wrap (RFC 3394 /
//! NIST SP 800-38F).
//!
//! The service's raw block modes leave integrity to the caller; this
//! module is the crate's authenticated layer, built from the same
//! primitives the rest of the stack already dispatches over:
//!
//! * **GCM** — CTR keystream with the SP 800-38D `inc32` counter
//!   (only the low 32 bits of the counter block increment, unlike the
//!   full-block add of [`crate::modes::Ctr`]), batched through
//!   [`BatchCipher::encrypt_blocks`] in 64-block spans so the
//!   bitsliced/AES-NI wide kernels — the same ones behind the engine's
//!   `Backend::process_batch` — do the bulk work; GHASH over AAD and
//!   ciphertext via [`crate::ghash`] (PCLMULQDQ or 4-bit table, a
//!   runtime decision). Nonces are **96-bit only**, enforced by type:
//!   SP 800-38D's non-96-bit nonce path (GHASH over the IV) is easy to
//!   misuse and deliberately unsupported.
//! * **XTS** — the sector-tweakable mode for disk workloads: per-sector
//!   tweak `E_K2(sector)`, carried as one little-endian `u128` and
//!   multiplied by α per block with a 128-bit shift and a folded 0x87;
//!   whitening and the data cipher run in the same 64-block
//!   [`BatchCipher`] spans as GCM's keystream, and ragged sectors end in
//!   ciphertext stealing. Not authenticated — it detects nothing, it
//!   only binds ciphertext to its sector.
//! * **Key wrap** — RFC 3394's 6·n-round shuffle with the `A6A6...`
//!   integrity check value, for moving session keys between nodes (the
//!   roadmap's cluster mode); [`Error::TagMismatch`] on any corruption.
//!
//! Tag and ICV comparisons reuse [`crate::cmac::ct_eq`] — one
//! constant-time comparison path for the whole crate. Hash subkeys and
//! derived tweaks are wiped via [`crate::zeroize`].
//!
//! Per-mode telemetry lands next to the classic modes:
//! `rijndael.mode.{gcm,xts,kw}.{blocks,bytes}`.

use crate::cipher::{BatchCipher, BlockCipher};
use crate::cmac::ct_eq;
use crate::ghash::{Ghash, GhashImpl};
use crate::modes::stats;
use crate::zeroize::{wipe_bytes, wipe_u128};

/// GCM tag length in bytes (full-length tags only; truncated tags
/// weaken GCM disproportionately and are not offered).
pub const TAG_LEN: usize = 16;

/// GCM nonce length in bytes (96-bit nonces only; see the module docs).
pub const NONCE_LEN: usize = 12;

/// Blocks per [`BatchCipher`] span in GCM (counter blocks) and XTS
/// (whitened data blocks and their tweaks): one bitsliced wide pass
/// ([`crate::bitslice::WIDE`]), which also keeps AES-NI's 8-block
/// interleave saturated, and a stack buffer small enough (1 KiB) that
/// neither mode allocates per message or per sector.
const KEYSTREAM_BATCH: usize = 64;

/// Typed failures of the authenticated layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The authentication tag (GCM) or integrity check value (key wrap)
    /// did not verify. No plaintext is ever returned alongside this.
    TagMismatch,
    /// A sealed GCM message shorter than one tag.
    Truncated {
        /// Actual length supplied.
        len: usize,
    },
    /// An XTS sector shorter than one cipher block (IEEE 1619 requires
    /// at least 128 bits per data unit).
    SectorTooShort {
        /// Actual length supplied.
        len: usize,
    },
    /// A key-wrap payload that is not a whole number of 64-bit
    /// semiblocks, or has too few of them (RFC 3394 needs n ≥ 2 to
    /// wrap, n ≥ 3 to unwrap).
    BadWrapLength {
        /// Actual length supplied.
        len: usize,
    },
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::TagMismatch => write!(f, "authentication tag mismatch"),
            Error::Truncated { len } => {
                write!(f, "sealed message of {len} bytes is shorter than one tag")
            }
            Error::SectorTooShort { len } => {
                write!(f, "XTS sector of {len} bytes is shorter than one block")
            }
            Error::BadWrapLength { len } => {
                write!(f, "key-wrap payload of {len} bytes is not valid")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Object-safe authenticated-encryption surface: seal produces
/// `ciphertext || tag`, open verifies before returning plaintext.
pub trait Aead {
    /// Stable mode name (telemetry, service opcode tables).
    fn name(&self) -> &'static str;

    /// Tag bytes appended by [`Self::seal`].
    fn tag_len(&self) -> usize {
        TAG_LEN
    }

    /// Encrypts `plaintext` bound to `aad`, returning
    /// `ciphertext || tag`. Never reuse a `(key, nonce)` pair.
    fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8>;

    /// Verifies and decrypts `sealed` (`ciphertext || tag`). Returns
    /// [`Error::TagMismatch`] without any plaintext on corruption of
    /// ciphertext, tag, AAD, or nonce.
    fn open(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, Error>;
}

/// AES-GCM over any block cipher that batches (SP 800-38D).
///
/// The hash subkey `H = E_K(0)` is derived once at construction and
/// lives only inside the [`Ghash`] template, which wipes it on drop.
///
/// # Examples
///
/// ```
/// use rijndael::aead::{Aead, Gcm};
/// use rijndael::Aes256;
///
/// let gcm = Gcm::new(Aes256::new(&[0u8; 32]));
/// let sealed = gcm.seal(&[0u8; 12], b"header", b"payload");
/// assert_eq!(gcm.open(&[0u8; 12], b"header", &sealed).unwrap(), b"payload");
/// assert!(gcm.open(&[0u8; 12], b"tampered", &sealed).is_err());
/// ```
pub struct Gcm<C> {
    cipher: C,
    /// Zero-state GHASH keyed with `H`; cloned per message.
    ghash: Ghash,
}

impl<C: BlockCipher + BatchCipher> Gcm<C> {
    /// Wraps `cipher`, deriving the hash subkey `H = E_K(0^128)`.
    #[must_use]
    pub fn new(cipher: C) -> Self {
        Self::with_ghash_impl(cipher, GhashImpl::detect())
    }

    /// Like [`Self::new`] but pins the GHASH multiplier core (bench and
    /// test sweeps; see [`Ghash::with_impl`] for the panic contract).
    #[must_use]
    pub fn with_ghash_impl(cipher: C, which: GhashImpl) -> Self {
        let mut h = [0u8; 16];
        cipher.encrypt_in_place(&mut h);
        let ghash = Ghash::with_impl(&h, which);
        wipe_bytes(&mut h);
        Gcm { cipher, ghash }
    }

    /// The GHASH multiplier core this instance runs.
    #[must_use]
    pub fn ghash_impl(&self) -> GhashImpl {
        self.ghash.implementation()
    }

    /// The pre-counter block `J0 = nonce || 0^31 || 1` for a 96-bit
    /// nonce.
    fn j0(nonce: &[u8; NONCE_LEN]) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..NONCE_LEN].copy_from_slice(nonce);
        block[15] = 1;
        block
    }

    /// XORs the GCTR keystream starting at counter value `ctr` of `j0`
    /// into `data`, batching [`KEYSTREAM_BATCH`] counter blocks per
    /// [`BatchCipher::encrypt_blocks`] pass. The counter uses SP
    /// 800-38D `inc32`: only the low 32 bits increment (and wrap).
    fn ctr_xor(&self, j0: &[u8; 16], mut ctr: u32, data: &mut [u8]) {
        let mut batch = [[0u8; 16]; KEYSTREAM_BATCH];
        for span in data.chunks_mut(16 * KEYSTREAM_BATCH) {
            let n = span.len().div_ceil(16);
            for block in &mut batch[..n] {
                block.copy_from_slice(j0);
                block[12..].copy_from_slice(&ctr.to_be_bytes());
                ctr = ctr.wrapping_add(1);
            }
            self.cipher.encrypt_blocks(&mut batch[..n]);
            for (chunk, keystream) in span.chunks_mut(16).zip(&batch) {
                for (byte, k) in chunk.iter_mut().zip(keystream) {
                    *byte ^= k;
                }
            }
        }
        // Keystream blocks are as secret as the key while unconsumed.
        wipe_bytes(batch.as_flattened_mut());
    }

    /// `GHASH(AAD || pad, C || pad, len(AAD) || len(C))`, then masked
    /// with `E_K(J0)` — the full-length tag.
    fn tag(&self, j0: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let mut ghash = self.ghash.clone();
        ghash.update_padded(aad);
        ghash.update_padded(ciphertext);
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad.len() as u64 * 8).to_be_bytes());
        lengths[8..].copy_from_slice(&(ciphertext.len() as u64 * 8).to_be_bytes());
        ghash.update(&lengths);
        let mut tag = ghash.finalize();
        let mut mask = *j0;
        self.cipher.encrypt_in_place(&mut mask);
        for (t, m) in tag.iter_mut().zip(&mask) {
            *t ^= m;
        }
        wipe_bytes(&mut mask);
        tag
    }
}

impl<C: BlockCipher + BatchCipher> Aead for Gcm<C> {
    fn name(&self) -> &'static str {
        "gcm"
    }

    fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        stats::gcm().record(plaintext.len(), 16);
        let j0 = Self::j0(nonce);
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        // Data blocks start at inc32(J0), i.e. counter value 2.
        self.ctr_xor(&j0, 2, &mut out);
        let tag = self.tag(&j0, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    fn open(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, Error> {
        let Some(split) = sealed.len().checked_sub(TAG_LEN) else {
            return Err(Error::Truncated { len: sealed.len() });
        };
        let (ciphertext, tag) = sealed.split_at(split);
        stats::gcm().record(ciphertext.len(), 16);
        let j0 = Self::j0(nonce);
        // Verify first — the keystream is never spent on a forgery.
        let expect = self.tag(&j0, aad, ciphertext);
        if !ct_eq(&expect, tag) {
            return Err(Error::TagMismatch);
        }
        let mut out = ciphertext.to_vec();
        self.ctr_xor(&j0, 2, &mut out);
        Ok(out)
    }
}

impl<C: core::fmt::Debug> core::fmt::Debug for Gcm<C> {
    /// Never prints key material (delegates to the cipher's own
    /// key-free `Debug`).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Gcm {{ cipher: {:?}, ghash: {} }}",
            self.cipher,
            self.ghash.implementation().name()
        )
    }
}

/// XTS-AES for sector-addressed storage (IEEE 1619).
///
/// Two independent keys: `data` encrypts blocks, `tweak` encrypts the
/// sector number into the starting tweak. Both cipher instances wipe
/// their schedules on drop, which is what "zeroize the tweak key" means
/// in this crate's ownership model. Sectors must be at least one block
/// (16 bytes); ragged lengths use ciphertext stealing, so output length
/// always equals input length.
///
/// The tweak chain runs at full width: the running tweak is one
/// little-endian `u128`, and each block's whitening is a single 128-bit
/// XOR. A sector goes through the data cipher in `KEYSTREAM_BATCH`-block
/// spans — whiten, one [`BatchCipher`] call, un-whiten — with the span's
/// tweaks in a stack buffer that is wiped once the sector is done.
///
/// # Examples
///
/// ```
/// use rijndael::aead::Xts;
/// use rijndael::Aes128;
///
/// let xts = Xts::new(Aes128::new(&[1u8; 16]), Aes128::new(&[2u8; 16]));
/// let mut sector = *b"sector payload of 20";
/// xts.encrypt_sector(7, &mut sector).unwrap();
/// xts.decrypt_sector(7, &mut sector).unwrap();
/// assert_eq!(&sector, b"sector payload of 20");
/// ```
pub struct Xts<C> {
    data: C,
    tweak: C,
}

/// Multiplies an XTS tweak by α. Read as a little-endian 128-bit
/// integer, that is a left shift by one, with the bit shifted out of
/// the top folded back in as the reduction constant 0x87 (IEEE 1619
/// §5.2). Branch-free.
fn mul_alpha(t: u128) -> u128 {
    (t << 1) ^ ((t >> 127) * 0x87)
}

/// XORs a little-endian 128-bit tweak into one block.
fn xor_tweak(block: &mut [u8; 16], t: u128) {
    *block = (u128::from_le_bytes(*block) ^ t).to_le_bytes();
}

impl<C: BlockCipher + BatchCipher> Xts<C> {
    /// Pairs the data-path cipher with the tweak cipher (two
    /// independently keyed instances of the same variant).
    #[must_use]
    pub fn new(data: C, tweak: C) -> Self {
        Xts { data, tweak }
    }

    /// The starting tweak of `sector`: `E_K2(sector as 128-bit LE)`,
    /// read back as a little-endian `u128`.
    fn sector_tweak(&self, sector: u64) -> u128 {
        let mut t = [0u8; 16];
        t[..8].copy_from_slice(&sector.to_le_bytes());
        self.tweak.encrypt_in_place(&mut t);
        let tweak = u128::from_le_bytes(t);
        wipe_bytes(&mut t);
        tweak
    }

    /// Encrypts one sector in place. `data.len()` must be ≥ 16; a
    /// non-multiple of 16 engages ciphertext stealing.
    ///
    /// # Errors
    ///
    /// [`Error::SectorTooShort`] when the sector is under one block.
    pub fn encrypt_sector(&self, sector: u64, data: &mut [u8]) -> Result<(), Error> {
        self.process_sector(sector, data, false)
    }

    /// Decrypts one sector in place (inverse of
    /// [`Self::encrypt_sector`]).
    ///
    /// # Errors
    ///
    /// [`Error::SectorTooShort`] when the sector is under one block.
    pub fn decrypt_sector(&self, sector: u64, data: &mut [u8]) -> Result<(), Error> {
        self.process_sector(sector, data, true)
    }

    fn process_sector(&self, sector: u64, data: &mut [u8], decrypt: bool) -> Result<(), Error> {
        if data.len() < 16 {
            return Err(Error::SectorTooShort { len: data.len() });
        }
        stats::xts().record(data.len(), 16);
        let ragged = !data.len().is_multiple_of(16);
        let (blocks, _) = data.as_chunks_mut::<16>();
        // Bulk prefix: every block that is NOT involved in ciphertext
        // stealing. With a ragged tail the last full block joins the
        // stealing dance, so the prefix shrinks by one.
        let bulk = blocks.len() - usize::from(ragged);

        let mut t = self.sector_tweak(sector);
        let mut tweaks = [0u128; KEYSTREAM_BATCH];
        for span in blocks[..bulk].chunks_mut(KEYSTREAM_BATCH) {
            for (block, slot) in span.iter_mut().zip(&mut tweaks) {
                *slot = t;
                xor_tweak(block, t);
                t = mul_alpha(t);
            }
            if decrypt {
                self.data.decrypt_blocks(span);
            } else {
                self.data.encrypt_blocks(span);
            }
            for (block, &tw) in span.iter_mut().zip(&tweaks) {
                xor_tweak(block, tw);
            }
        }
        wipe_u128(&mut tweaks);
        // t is now T_bulk, the first stealing tweak.

        if ragged {
            self.steal(data, t, decrypt);
        }
        wipe_u128(core::slice::from_mut(&mut t));
        Ok(())
    }

    /// Ciphertext stealing over the last full block and the `tail`
    /// partial block (IEEE 1619 §5.3.2/§5.4.2). `t` is the tweak of the
    /// last full block; encryption uses `(t, t·α)` in that order,
    /// decryption swaps them.
    fn steal(&self, data: &mut [u8], t: u128, decrypt: bool) {
        let tail = data.len() % 16;
        let split = data.len() - tail - 16;
        let t2 = mul_alpha(t);
        let mut pair = if decrypt { [t2, t] } else { [t, t2] };

        let one_block = |block: &mut [u8; 16], tw: u128| {
            xor_tweak(block, tw);
            if decrypt {
                self.data.decrypt_in_place(block);
            } else {
                self.data.encrypt_in_place(block);
            }
            xor_tweak(block, tw);
        };

        // CC = cipher(P_{m-1}, T_first): full output of the last full
        // input block.
        let mut cc: [u8; 16] = data[split..split + 16].try_into().expect("16-byte slice");
        one_block(&mut cc, pair[0]);
        // The stolen suffix of CC completes the partial block; CC's
        // prefix becomes the final partial output.
        let mut pp = [0u8; 16];
        pp[..tail].copy_from_slice(&data[split + 16..]);
        pp[tail..].copy_from_slice(&cc[tail..]);
        one_block(&mut pp, pair[1]);
        data[split..split + 16].copy_from_slice(&pp);
        data[split + 16..].copy_from_slice(&cc[..tail]);
        wipe_bytes(&mut cc);
        wipe_bytes(&mut pp);
        wipe_u128(&mut pair);
    }
}

impl<C: core::fmt::Debug> core::fmt::Debug for Xts<C> {
    /// Never prints key material.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Xts {{ data: {:?}, tweak: {:?} }}",
            self.data, self.tweak
        )
    }
}

/// The RFC 3394 integrity check value.
const KW_IV: [u8; 8] = [0xA6; 8];

/// Wraps `key_data` (n ≥ 2 whole 64-bit semiblocks) under `kek`,
/// returning `8 + key_data.len()` bytes (RFC 3394 §2.2.1, the 6·n-step
/// index-mixed shuffle).
///
/// # Errors
///
/// [`Error::BadWrapLength`] when `key_data` is not 16/24/32/... bytes.
pub fn wrap<C: BlockCipher>(kek: &C, key_data: &[u8]) -> Result<Vec<u8>, Error> {
    if key_data.len() < 16 || !key_data.len().is_multiple_of(8) {
        return Err(Error::BadWrapLength {
            len: key_data.len(),
        });
    }
    stats::kw().record(key_data.len(), 8);
    let n = key_data.len() / 8;
    let mut a = KW_IV;
    let mut r = key_data.to_vec();
    let mut block = [0u8; 16];
    for j in 0..6u64 {
        for i in 0..n {
            block[..8].copy_from_slice(&a);
            block[8..].copy_from_slice(&r[8 * i..8 * i + 8]);
            kek.encrypt_in_place(&mut block);
            let t = (n as u64) * j + (i as u64) + 1;
            a.copy_from_slice(&block[..8]);
            for (byte, tb) in a.iter_mut().zip(t.to_be_bytes()) {
                *byte ^= tb;
            }
            r[8 * i..8 * i + 8].copy_from_slice(&block[8..]);
        }
    }
    wipe_bytes(&mut block);
    let mut out = Vec::with_capacity(8 + r.len());
    out.extend_from_slice(&a);
    out.append(&mut r);
    Ok(out)
}

/// Unwraps RFC 3394 `wrapped` data (n ≥ 3 semiblocks) under `kek`,
/// verifying the integrity check value through [`crate::cmac::ct_eq`].
///
/// # Errors
///
/// [`Error::BadWrapLength`] on a malformed length;
/// [`Error::TagMismatch`] when the integrity check fails (wrong KEK or
/// corrupted data) — no key material is returned.
pub fn unwrap<C: BlockCipher>(kek: &C, wrapped: &[u8]) -> Result<Vec<u8>, Error> {
    if wrapped.len() < 24 || !wrapped.len().is_multiple_of(8) {
        return Err(Error::BadWrapLength { len: wrapped.len() });
    }
    stats::kw().record(wrapped.len() - 8, 8);
    let n = wrapped.len() / 8 - 1;
    let mut a: [u8; 8] = wrapped[..8].try_into().expect("8-byte slice");
    let mut r = wrapped[8..].to_vec();
    let mut block = [0u8; 16];
    for j in (0..6u64).rev() {
        for i in (0..n).rev() {
            let t = (n as u64) * j + (i as u64) + 1;
            block[..8].copy_from_slice(&a);
            for (byte, tb) in block[..8].iter_mut().zip(t.to_be_bytes()) {
                *byte ^= tb;
            }
            block[8..].copy_from_slice(&r[8 * i..8 * i + 8]);
            kek.decrypt_in_place(&mut block);
            a.copy_from_slice(&block[..8]);
            r[8 * i..8 * i + 8].copy_from_slice(&block[8..]);
        }
    }
    wipe_bytes(&mut block);
    if !ct_eq(&a, &KW_IV) {
        wipe_bytes(&mut r);
        return Err(Error::TagMismatch);
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aes128, Aes192, Aes256};

    #[test]
    fn gcm_empty_plaintext_empty_aad_roundtrips() {
        let gcm = Gcm::new(Aes128::new(&[0u8; 16]));
        let sealed = gcm.seal(&[0u8; 12], b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(gcm.open(&[0u8; 12], b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn gcm_roundtrips_across_lengths_and_key_sizes() {
        let nonce = [7u8; 12];
        let aad = b"associated data";
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 1024, 1039] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let g128 = Gcm::new(Aes128::new(&[0x11; 16]));
            let g192 = Gcm::new(Aes192::new(&[0x22; 24]));
            let g256 = Gcm::new(Aes256::new(&[0x33; 32]));
            for (name, gcm) in [
                ("128", &g128 as &dyn Aead),
                ("192", &g192 as &dyn Aead),
                ("256", &g256 as &dyn Aead),
            ] {
                let sealed = gcm.seal(&nonce, aad, &pt);
                assert_eq!(sealed.len(), len + TAG_LEN, "aes-{name} len {len}");
                let opened = gcm.open(&nonce, aad, &sealed).unwrap();
                assert_eq!(opened, pt, "aes-{name} len {len}");
            }
        }
    }

    #[test]
    fn gcm_open_rejects_every_single_bit_flip_of_the_tag() {
        // The all-bit-flip sweep of cmac::verify, applied to GCM: no
        // bit of the constant-time comparison may be ignored.
        let gcm = Gcm::new(Aes128::new(&[0x42; 16]));
        let nonce = [9u8; 12];
        let sealed = gcm.seal(&nonce, b"aad", b"sixteen byte msg");
        assert!(gcm.open(&nonce, b"aad", &sealed).is_ok());
        let tag_start = sealed.len() - TAG_LEN;
        for byte in tag_start..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(
                    gcm.open(&nonce, b"aad", &bad),
                    Err(Error::TagMismatch),
                    "accepted tag corrupted at byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn gcm_open_rejects_flipped_ciphertext_aad_and_nonce() {
        let gcm = Gcm::new(Aes256::new(&[0x5A; 32]));
        let nonce = [1u8; 12];
        let sealed = gcm.seal(&nonce, b"aad", b"some longer plaintext payload");
        let mut bad = sealed.clone();
        bad[0] ^= 0x80;
        assert_eq!(gcm.open(&nonce, b"aad", &bad), Err(Error::TagMismatch));
        assert_eq!(gcm.open(&nonce, b"axd", &sealed), Err(Error::TagMismatch));
        let mut other_nonce = nonce;
        other_nonce[11] ^= 1;
        assert_eq!(
            gcm.open(&other_nonce, b"aad", &sealed),
            Err(Error::TagMismatch)
        );
        assert_eq!(
            gcm.open(&nonce, b"aad", &sealed[..TAG_LEN - 1]),
            Err(Error::Truncated { len: TAG_LEN - 1 })
        );
    }

    #[test]
    fn gcm_counter_wraps_inc32_not_the_full_block() {
        // A nonce whose derived counter starts near 2^32 forces the low
        // 32 bits to wrap; the full-block add of modes::Ctr would carry
        // into the nonce bytes and diverge. The KAT cross-check against
        // a one-block-at-a-time reference pins the inc32 behavior.
        let cipher = Aes128::new(&[0xC4; 16]);
        let gcm = Gcm::new(Aes128::new(&[0xC4; 16]));
        let nonce = [0xFF; 12];
        let pt = vec![0xA5u8; 160];
        let sealed = gcm.seal(&nonce, b"", &pt);

        // Reference: E(nonce || ctr) one block at a time, ctr from 2.
        let mut expect = pt.clone();
        for (i, chunk) in expect.chunks_mut(16).enumerate() {
            let mut block = [0xFFu8; 16];
            block[12..].copy_from_slice(&(2u32.wrapping_add(i as u32)).to_be_bytes());
            let k = cipher.encrypt_block(&block);
            for (b, kb) in chunk.iter_mut().zip(&k) {
                *b ^= kb;
            }
        }
        assert_eq!(&sealed[..160], &expect[..]);
    }

    #[test]
    fn gcm_both_ghash_cores_interoperate() {
        let seal_side = Gcm::with_ghash_impl(Aes128::new(&[0x77; 16]), GhashImpl::Portable);
        let nonce = [3u8; 12];
        let sealed = seal_side.seal(&nonce, b"hdr", b"cross-core payload");
        for which in [GhashImpl::Pclmul, GhashImpl::Portable] {
            if !which.available() {
                continue;
            }
            let open_side = Gcm::with_ghash_impl(Aes128::new(&[0x77; 16]), which);
            assert_eq!(
                open_side.open(&nonce, b"hdr", &sealed).unwrap(),
                b"cross-core payload",
                "impl {}",
                which.name()
            );
        }
    }

    #[test]
    fn xts_roundtrips_whole_and_ragged_sectors() {
        let xts = Xts::new(Aes128::new(&[0x01; 16]), Aes128::new(&[0x02; 16]));
        for len in [16usize, 17, 31, 32, 33, 512, 520, 4096] {
            let original: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let mut sector = original.clone();
            xts.encrypt_sector(42, &mut sector).unwrap();
            assert_ne!(sector, original, "len {len}");
            xts.decrypt_sector(42, &mut sector).unwrap();
            assert_eq!(sector, original, "len {len}");
        }
    }

    #[test]
    fn xts_binds_ciphertext_to_its_sector() {
        let xts = Xts::new(Aes256::new(&[0x0A; 32]), Aes256::new(&[0x0B; 32]));
        let mut a = vec![0x5Au8; 512];
        let mut b = vec![0x5Au8; 512];
        xts.encrypt_sector(1, &mut a).unwrap();
        xts.encrypt_sector(2, &mut b).unwrap();
        assert_ne!(a, b, "identical sectors must encrypt differently");
        // Decrypting under the wrong sector yields garbage, not the
        // original.
        xts.decrypt_sector(2, &mut a).unwrap();
        assert_ne!(a, vec![0x5Au8; 512]);
    }

    #[test]
    fn xts_rejects_sub_block_sectors() {
        let xts = Xts::new(Aes128::new(&[0x01; 16]), Aes128::new(&[0x02; 16]));
        let mut short = [0u8; 15];
        assert_eq!(
            xts.encrypt_sector(0, &mut short),
            Err(Error::SectorTooShort { len: 15 })
        );
        assert_eq!(
            xts.decrypt_sector(0, &mut short),
            Err(Error::SectorTooShort { len: 15 })
        );
    }

    #[test]
    fn mul_alpha_matches_the_doubling_identity() {
        // α in the XTS little-endian convention equals the CMAC dbl()
        // constant read in the opposite byte order; doubling [1, 0...]
        // must give [2, 0...] and shift a top bit into the reduction.
        let mut t = [0u8; 16];
        t[0] = 1;
        let t = mul_alpha(u128::from_le_bytes(t)).to_le_bytes();
        assert_eq!(t[0], 2);
        let mut top = [0u8; 16];
        top[15] = 0x80;
        let top = mul_alpha(u128::from_le_bytes(top)).to_le_bytes();
        assert_eq!(top[0], 0x87);
        assert_eq!(top[15], 0x00);
    }

    #[test]
    fn key_wrap_roundtrips_and_rejects_corruption() {
        let kek = Aes256::new(&[0x37; 32]);
        for len in [16usize, 24, 32, 40] {
            let key: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let wrapped = wrap(&kek, &key).unwrap();
            assert_eq!(wrapped.len(), len + 8);
            assert_eq!(unwrap(&kek, &wrapped).unwrap(), key, "len {len}");
            for byte in 0..wrapped.len() {
                let mut bad = wrapped.clone();
                bad[byte] ^= 0x01;
                assert_eq!(
                    unwrap(&kek, &bad),
                    Err(Error::TagMismatch),
                    "len {len} byte {byte}"
                );
            }
        }
    }

    #[test]
    fn key_wrap_rejects_bad_lengths() {
        let kek = Aes128::new(&[0u8; 16]);
        assert_eq!(wrap(&kek, &[0u8; 8]), Err(Error::BadWrapLength { len: 8 }));
        assert_eq!(
            wrap(&kek, &[0u8; 17]),
            Err(Error::BadWrapLength { len: 17 })
        );
        assert_eq!(
            unwrap(&kek, &[0u8; 16]),
            Err(Error::BadWrapLength { len: 16 })
        );
        assert_eq!(
            unwrap(&kek, &[0u8; 25]),
            Err(Error::BadWrapLength { len: 25 })
        );
    }

    #[test]
    fn wrong_kek_fails_the_integrity_check() {
        let kek = Aes128::new(&[0x01; 16]);
        let other = Aes128::new(&[0x02; 16]);
        let wrapped = wrap(&kek, &[0xEE; 16]).unwrap();
        assert_eq!(unwrap(&other, &wrapped), Err(Error::TagMismatch));
    }
}
