//! The generic Rijndael cipher and the [`BlockCipher`] abstraction used by
//! the [modes of operation](crate::modes).

use core::fmt;

use crate::key_schedule::{InvalidKeyLength, KeySchedule};
use crate::state::State;
use crate::transform;

/// A block cipher operating on fixed-size blocks in place.
///
/// The trait is object-safe so heterogeneous cipher collections (e.g. the
/// benchmark harness comparing reference, T-table and hardware-model
/// implementations) can be built.
pub trait BlockCipher {
    /// Block size in bytes.
    fn block_len(&self) -> usize;

    /// Encrypts one block in place.
    ///
    /// # Panics
    ///
    /// Implementations panic if `block.len() != self.block_len()`.
    fn encrypt_in_place(&self, block: &mut [u8]);

    /// Decrypts one block in place.
    ///
    /// # Panics
    ///
    /// Implementations panic if `block.len() != self.block_len()`.
    fn decrypt_in_place(&self, block: &mut [u8]);
}

/// Batch extension of [`BlockCipher`] for 16-byte-block ciphers.
///
/// The provided methods fall back to one [`BlockCipher`] call per block,
/// so any AES-128-shaped cipher can opt in with an empty `impl`; ciphers
/// with a genuine multi-block pass
/// ([`Bitsliced8`](crate::bitslice::Bitsliced8)) override them. The modes
/// of operation ([`crate::modes`]) and the engine's batch submission path
/// route bulk work through this trait, so the override is what turns a
/// big ECB/CTR payload into full bitsliced passes.
pub trait BatchCipher: BlockCipher {
    /// Encrypts every block in place.
    ///
    /// # Panics
    ///
    /// Implementations panic if `self.block_len() != 16`.
    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        assert_eq!(self.block_len(), 16, "batch API is fixed to AES blocks");
        for block in blocks {
            self.encrypt_in_place(block);
        }
    }

    /// Decrypts every block in place.
    ///
    /// # Panics
    ///
    /// Implementations panic if `self.block_len() != 16`.
    fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        assert_eq!(self.block_len(), 16, "batch API is fixed to AES blocks");
        for block in blocks {
            self.decrypt_in_place(block);
        }
    }
}

impl BatchCipher for crate::bitslice::Bitsliced8 {
    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        Self::encrypt_blocks(self, blocks);
    }

    fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        Self::decrypt_blocks(self, blocks);
    }
}

// `Rijndael<4>` is the 16-byte-block subset (AES-128/192/256 by key
// length), so the default block-at-a-time batch loop applies. Wider
// blocks stay off the batch API, whose layout is fixed to AES blocks.
impl BatchCipher for Rijndael<4> {}

// A borrowed cipher is a cipher, so a construction that owns its cipher
// (`Gcm`, `Xts`) can run over one it is lent. Batches forward whole, so
// they keep the lender's wide path.
impl<T: BlockCipher + ?Sized> BlockCipher for &T {
    fn block_len(&self) -> usize {
        (**self).block_len()
    }

    fn encrypt_in_place(&self, block: &mut [u8]) {
        (**self).encrypt_in_place(block);
    }

    fn decrypt_in_place(&self, block: &mut [u8]) {
        (**self).decrypt_in_place(block);
    }
}

impl<T: BatchCipher + ?Sized> BatchCipher for &T {
    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        (**self).encrypt_blocks(blocks);
    }

    fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        (**self).decrypt_blocks(blocks);
    }
}

/// The Rijndael cipher with a block of `NB` 32-bit columns.
///
/// The key size is chosen at runtime (16–32 bytes in 4-byte steps); the
/// block size is a compile-time parameter because the state layout depends
/// on it. `Rijndael<4>` with a 16-byte key is AES-128.
///
/// # Examples
///
/// ```
/// use rijndael::Rijndael;
///
/// // A 160-bit block, 256-bit key Rijndael instance — outside the AES
/// // subset but inside the design space of the original cipher.
/// let cipher = Rijndael::<5>::new(&[0u8; 32])?;
/// let mut block = [0u8; 20];
/// cipher.encrypt(&mut block);
/// cipher.decrypt(&mut block);
/// assert_eq!(block, [0u8; 20]);
/// # Ok::<(), rijndael::key_schedule::InvalidKeyLength>(())
/// ```
#[derive(Clone)]
pub struct Rijndael<const NB: usize> {
    schedule: KeySchedule,
}

impl<const NB: usize> Rijndael<NB> {
    /// Block size in bytes.
    pub const BLOCK_LEN: usize = 4 * NB;

    /// Expands `key` and constructs the cipher.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidKeyLength`] if `key.len()` is not 16, 20, 24, 28 or
    /// 32 bytes.
    pub fn new(key: &[u8]) -> Result<Self, InvalidKeyLength> {
        Ok(Rijndael {
            schedule: KeySchedule::expand(key, NB)?,
        })
    }

    /// The expanded key schedule.
    #[inline]
    #[must_use]
    pub fn schedule(&self) -> &KeySchedule {
        &self.schedule
    }

    /// Encrypts a state in place, following the paper's Figure 2: an
    /// initial `AddKey`, `NR - 1` full rounds, and a final round without
    /// `MixColumn`.
    pub fn encrypt_state(&self, state: &mut State<NB>) {
        let nr = self.schedule.rounds();
        transform::add_round_key(state, self.schedule.round_key(0));
        for round in 1..nr {
            transform::byte_sub(state);
            transform::shift_row(state);
            transform::mix_column(state);
            transform::add_round_key(state, self.schedule.round_key(round));
        }
        transform::byte_sub(state);
        transform::shift_row(state);
        transform::add_round_key(state, self.schedule.round_key(nr));
    }

    /// Decrypts a state in place: the inverse functions in inverse order
    /// (`AddKey → IMixColumn → IShiftRow → IByteSub` per round, with the
    /// first round skipping `IMixColumn`, as in the paper's §3).
    pub fn decrypt_state(&self, state: &mut State<NB>) {
        let nr = self.schedule.rounds();
        transform::add_round_key(state, self.schedule.round_key(nr));
        transform::inv_shift_row(state);
        transform::inv_byte_sub(state);
        for round in (1..nr).rev() {
            transform::add_round_key(state, self.schedule.round_key(round));
            transform::inv_mix_column(state);
            transform::inv_shift_row(state);
            transform::inv_byte_sub(state);
        }
        transform::add_round_key(state, self.schedule.round_key(0));
    }

    /// Encrypts one block in place.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != 4 * NB`.
    pub fn encrypt(&self, block: &mut [u8]) {
        let mut st = State::<NB>::from_bytes(block);
        self.encrypt_state(&mut st);
        st.write_bytes(block);
    }

    /// Decrypts one block in place.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != 4 * NB`.
    pub fn decrypt(&self, block: &mut [u8]) {
        let mut st = State::<NB>::from_bytes(block);
        self.decrypt_state(&mut st);
        st.write_bytes(block);
    }
}

impl<const NB: usize> BlockCipher for Rijndael<NB> {
    fn block_len(&self) -> usize {
        Self::BLOCK_LEN
    }

    fn encrypt_in_place(&self, block: &mut [u8]) {
        self.encrypt(block);
    }

    fn decrypt_in_place(&self, block: &mut [u8]) {
        self.decrypt(block);
    }
}

impl<const NB: usize> fmt::Debug for Rijndael<NB> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Rijndael<{NB}> {{ key bits: {}, rounds: {} }}",
            32 * self.schedule.key_words(),
            self.schedule.rounds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rijndael_spec_appendix_b_vector() {
        // The worked example of the Rijndael submission document:
        // key 2b7e151628aed2a6abf7158809cf4f3c,
        // plaintext 3243f6a8885a308d313198a2e0370734.
        let key = [
            0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF,
            0x4F, 0x3C,
        ];
        let mut block = [
            0x32, 0x43, 0xF6, 0xA8, 0x88, 0x5A, 0x30, 0x8D, 0x31, 0x31, 0x98, 0xA2, 0xE0, 0x37,
            0x07, 0x34,
        ];
        let cipher = Rijndael::<4>::new(&key).unwrap();
        cipher.encrypt(&mut block);
        assert_eq!(
            block,
            [
                0x39, 0x25, 0x84, 0x1D, 0x02, 0xDC, 0x09, 0xFB, 0xDC, 0x11, 0x85, 0x97, 0x19, 0x6A,
                0x0B, 0x32
            ]
        );
        cipher.decrypt(&mut block);
        assert_eq!(block[0], 0x32);
        assert_eq!(block[15], 0x34);
    }

    #[test]
    fn all_block_and_key_size_combinations_roundtrip() {
        fn check<const NB: usize>() {
            for key_len in [16usize, 20, 24, 28, 32] {
                let key: Vec<u8> = (0..key_len as u8).map(|b| b.wrapping_mul(37)).collect();
                let cipher = Rijndael::<NB>::new(&key).unwrap();
                let original: Vec<u8> = (0..4 * NB as u8)
                    .map(|b| b.wrapping_mul(11) ^ 0x5A)
                    .collect();
                let mut block = original.clone();
                cipher.encrypt(&mut block);
                assert_ne!(block, original, "encryption must change the block");
                cipher.decrypt(&mut block);
                assert_eq!(block, original, "roundtrip failed NB={NB} NK={key_len}");
            }
        }
        check::<4>();
        check::<5>();
        check::<6>();
        check::<7>();
        check::<8>();
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let c1 = Rijndael::<4>::new(&[0u8; 16]).unwrap();
        let c2 = Rijndael::<4>::new(&[1u8; 16]).unwrap();
        let mut b1 = [0u8; 16];
        let mut b2 = [0u8; 16];
        c1.encrypt(&mut b1);
        c2.encrypt(&mut b2);
        assert_ne!(b1, b2);
    }

    #[test]
    fn block_cipher_trait_dispatch() {
        let cipher: Box<dyn BlockCipher> = Box::new(Rijndael::<4>::new(&[0u8; 16]).unwrap());
        assert_eq!(cipher.block_len(), 16);
        let mut block = [7u8; 16];
        cipher.encrypt_in_place(&mut block);
        cipher.decrypt_in_place(&mut block);
        assert_eq!(block, [7u8; 16]);
    }

    #[test]
    fn debug_formats() {
        let cipher = Rijndael::<4>::new(&[0u8; 24]).unwrap();
        let s = format!("{cipher:?}");
        assert!(s.contains("key bits: 192"));
        assert!(s.contains("rounds: 12"));
    }

    #[test]
    #[should_panic(expected = "state requires exactly")]
    fn wrong_block_length_panics() {
        let cipher = Rijndael::<4>::new(&[0u8; 16]).unwrap();
        let mut short = [0u8; 8];
        cipher.encrypt(&mut short);
    }
}
