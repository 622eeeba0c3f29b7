//! Host-side bus driver for the IP (paper Figures 8–9).
//!
//! [`IpDriver`] plays the bus master: it wiggles `setup`/`wr_key`/`wr_data`
//! with the right timing, counts clock cycles, and exposes both a simple
//! blocking API and a pipelined streaming API that exploits the decoupled
//! `Data_In`/`Out` registers (a new block is written while the previous one
//! is still being processed — the overlap the paper's §4 highlights).
//!
//! [`IpDriver::try_process_stream`] and [`IpDriver::try_process_block`]
//! run a whole stream within one `&mut self` call and return a
//! [`StreamError`] instead of aborting when the direction is unsupported,
//! the core is busy or the core wedges.
//!
//! [`HardwareAes`] adapts a driver to the [`rijndael::BlockCipher`] trait
//! so the software block-mode implementations (CBC, CTR, ...) run
//! unmodified over the hardware model.

use std::cell::RefCell;
use std::fmt;

use rijndael::BlockCipher;

use crate::core::{CoreInputs, CoreOutputs, CoreVariant, CycleCore, Direction};
use crate::datapath::{block_to_u128, u128_to_block};

/// Failures of the fallible bus streaming APIs.
///
/// Every condition that used to abort the process via `assert!` is reported
/// through this type instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The core variant has no datapath for the requested direction
    /// (e.g. a decrypt stream on the encrypt-only device).
    UnsupportedDirection {
        /// The device variant that rejected the stream.
        variant: CoreVariant,
        /// The direction it cannot process.
        dir: Direction,
    },
    /// A stream cannot start while the core still has a block in flight or
    /// an unconsumed word in `Data_In` (completions would be attributed to
    /// the wrong stream).
    CoreBusy,
    /// The core stopped delivering completions: no progress for more than
    /// 16× the rated latency (a wedged model, e.g. a decrypt stream whose
    /// key-setup walk never ran).
    Wedged {
        /// Blocks that completed before the stall.
        completed: usize,
        /// Consecutive cycles without a write or a completion.
        idle_cycles: u64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnsupportedDirection { variant, dir } => {
                let verb = match dir {
                    Direction::Encrypt => "encrypt",
                    Direction::Decrypt => "decrypt",
                };
                write!(f, "core variant {variant} cannot {verb}")
            }
            StreamError::CoreBusy => {
                write!(f, "core is busy: a stream cannot start mid-flight")
            }
            StreamError::Wedged {
                completed,
                idle_cycles,
            } => write!(
                f,
                "stream wedged: no completion for {idle_cycles} cycles \
                 ({completed} blocks completed)"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// A cycle-counting bus master driving one core.
///
/// # Examples
///
/// ```
/// use aes_ip::bus::IpDriver;
/// use aes_ip::core::{Direction, EncryptCore};
///
/// let mut drv = IpDriver::new(EncryptCore::new());
/// drv.write_key(&[0u8; 16]);
/// let ct = drv.try_process_block(&[0u8; 16], Direction::Encrypt)?;
/// assert_eq!(ct[0], 0x66); // AES-128 zero vector
/// // 1 key edge + the load edge + the 50-cycle latency.
/// assert_eq!(drv.cycles(), 1 + 1 + 50);
/// # Ok::<(), aes_ip::bus::StreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IpDriver<C> {
    core: C,
    cycles: u64,
}

impl<C: CycleCore> IpDriver<C> {
    /// Wraps a core with a fresh cycle counter.
    #[must_use]
    pub fn new(core: C) -> Self {
        IpDriver { core, cycles: 0 }
    }

    /// Total rising edges issued so far.
    #[inline]
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Immutable access to the wrapped core.
    #[inline]
    #[must_use]
    pub fn core(&self) -> &C {
        &self.core
    }

    /// Consumes the driver and returns the core.
    #[must_use]
    pub fn into_inner(self) -> C {
        self.core
    }

    /// Issues one rising edge.
    pub fn clock(&mut self, inputs: &CoreInputs) -> CoreOutputs {
        self.cycles += 1;
        self.core.rising_edge(inputs)
    }

    /// Idles the core for `n` cycles.
    pub fn idle(&mut self, n: u64) {
        for _ in 0..n {
            self.clock(&CoreInputs::default());
        }
    }

    /// Loads a cipher key: one `setup`+`wr_key` edge followed by the
    /// key-setup walk the core variant requires (10 extra `setup` edges
    /// for decrypt-capable devices). Any in-flight block is invalidated by
    /// the hardware.
    pub fn write_key(&mut self, key: &[u8; 16]) {
        self.clock(&CoreInputs {
            setup: true,
            wr_key: true,
            din: block_to_u128(key),
            ..Default::default()
        });
        for _ in 0..self.core.key_setup_cycles() {
            self.clock(&CoreInputs {
                setup: true,
                ..Default::default()
            });
        }
    }

    /// Processes a stream of blocks, pipelined, reporting failures instead
    /// of aborting: the next block is written while the current one is in
    /// flight, sustaining one block per latency period (the paper's
    /// full-rate operation).
    ///
    /// # Errors
    ///
    /// * [`StreamError::UnsupportedDirection`] when the variant has no
    ///   datapath for `dir` (no edge is issued);
    /// * [`StreamError::CoreBusy`] when a block is still in flight or
    ///   pending from earlier activity (no edge is issued);
    /// * [`StreamError::Wedged`] when the core makes no progress for more
    ///   than 16× its rated latency.
    pub fn try_process_stream(
        &mut self,
        blocks: &[[u8; 16]],
        dir: Direction,
    ) -> Result<Vec<[u8; 16]>, StreamError> {
        let variant = self.core.variant();
        let supported = match dir {
            Direction::Encrypt => variant.supports_encrypt(),
            Direction::Decrypt => variant.supports_decrypt(),
        };
        if !supported {
            return Err(StreamError::UnsupportedDirection { variant, dir });
        }
        if self.core.busy() || self.core.has_pending() {
            return Err(StreamError::CoreBusy);
        }
        let stall_budget = 16 * self.core.latency_cycles().max(1);
        let mut results = Vec::with_capacity(blocks.len());
        let mut next_write = 0;
        let mut last_results = self.core.results_count();
        let mut idle = 0;
        while results.len() < blocks.len() {
            // Write the next block whenever the decoupled `Data_In`
            // register is free.
            let wrote = next_write < blocks.len() && !self.core.has_pending();
            let mut inputs = CoreInputs {
                enc_dec: dir,
                ..Default::default()
            };
            if wrote {
                inputs.wr_data = true;
                inputs.din = block_to_u128(&blocks[next_write]);
                next_write += 1;
            }
            let out = self.clock(&inputs);

            // With a single Out register, completions arrive one at a time.
            let now = self.core.results_count();
            if now > last_results {
                results.push(u128_to_block(out.dout));
                last_results = now;
                idle = 0;
            } else if wrote {
                idle = 0;
            } else {
                idle += 1;
                if idle > stall_budget {
                    return Err(StreamError::Wedged {
                        completed: results.len(),
                        idle_cycles: idle,
                    });
                }
            }
        }
        Ok(results)
    }

    /// Processes one block, blocking until `data_ok`, reporting failures
    /// instead of aborting.
    ///
    /// # Errors
    ///
    /// Any [`StreamError`] of [`IpDriver::try_process_stream`].
    pub fn try_process_block(
        &mut self,
        block: &[u8; 16],
        dir: Direction,
    ) -> Result<[u8; 16], StreamError> {
        let results = self.try_process_stream(core::slice::from_ref(block), dir)?;
        Ok(results[0])
    }
}

/// Adapter running the [`rijndael::modes`] implementations over a hardware
/// core model.
///
/// # Examples
///
/// ```
/// use aes_ip::bus::HardwareAes;
/// use aes_ip::core::EncDecCore;
/// use rijndael::modes::Cbc;
///
/// let hw = HardwareAes::new(EncDecCore::new(), &[0u8; 16]);
/// let mut data = vec![0u8; 48];
/// Cbc::encrypt(&hw, &[0u8; 16], &mut data)?;
/// Cbc::decrypt(&hw, &[0u8; 16], &mut data)?;
/// assert_eq!(data, vec![0u8; 48]);
/// # Ok::<(), rijndael::modes::LengthError>(())
/// ```
pub struct HardwareAes<C> {
    driver: RefCell<IpDriver<C>>,
}

impl<C: CycleCore> HardwareAes<C> {
    /// Wraps a core and loads `key`.
    #[must_use]
    pub fn new(core: C, key: &[u8; 16]) -> Self {
        let mut driver = IpDriver::new(core);
        driver.write_key(key);
        HardwareAes {
            driver: RefCell::new(driver),
        }
    }

    /// Total clock cycles consumed so far (key setup included).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.driver.borrow().cycles()
    }
}

impl<C: CycleCore> BlockCipher for HardwareAes<C> {
    fn block_len(&self) -> usize {
        16
    }

    /// # Panics
    ///
    /// Panics if the wrapped core cannot encrypt, or `block.len() != 16`.
    fn encrypt_in_place(&self, block: &mut [u8]) {
        let arr: [u8; 16] = block.try_into().expect("AES block is 16 bytes");
        let out = self
            .driver
            .borrow_mut()
            .try_process_block(&arr, Direction::Encrypt)
            .unwrap_or_else(|e| panic!("{e}"));
        block.copy_from_slice(&out);
    }

    /// # Panics
    ///
    /// Panics if the wrapped core cannot decrypt, or `block.len() != 16`.
    fn decrypt_in_place(&self, block: &mut [u8]) {
        let arr: [u8; 16] = block.try_into().expect("AES block is 16 bytes");
        let out = self
            .driver
            .borrow_mut()
            .try_process_block(&arr, Direction::Decrypt)
            .unwrap_or_else(|e| panic!("{e}"));
        block.copy_from_slice(&out);
    }
}

impl<C: CycleCore> fmt::Debug for HardwareAes<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HardwareAes {{ variant: {}, cycles: {} }}",
            self.driver.borrow().core().variant(),
            self.cycles()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{DecryptCore, EncDecCore, EncryptCore, LATENCY_CYCLES};
    use rijndael::modes::{Cbc, Ctr, Ecb};
    use rijndael::vectors::{AES128_VECTORS, FIPS197_C1};

    #[test]
    fn driver_single_block_latency_budget() {
        let mut drv = IpDriver::new(EncryptCore::new());
        let mut key = [0u8; 16];
        key.copy_from_slice(FIPS197_C1.key);
        drv.write_key(&key);
        assert_eq!(drv.cycles(), 1); // encrypt-only: no setup walk
        let ct = drv
            .try_process_block(&FIPS197_C1.plaintext, Direction::Encrypt)
            .unwrap();
        assert_eq!(ct, FIPS197_C1.ciphertext);
        // Key edge + load edge + 50 processing edges.
        assert_eq!(drv.cycles(), 1 + 1 + LATENCY_CYCLES);
    }

    #[test]
    fn decrypt_driver_includes_setup_walk() {
        let mut drv = IpDriver::new(DecryptCore::new());
        let mut key = [0u8; 16];
        key.copy_from_slice(FIPS197_C1.key);
        drv.write_key(&key);
        assert_eq!(drv.cycles(), 1 + 10);
        let pt = drv
            .try_process_block(&FIPS197_C1.ciphertext, Direction::Decrypt)
            .unwrap();
        assert_eq!(pt, FIPS197_C1.plaintext);
    }

    #[test]
    fn stream_is_pipelined_at_one_block_per_latency() {
        let mut drv = IpDriver::new(EncryptCore::new());
        drv.write_key(&[0u8; 16]);
        let start = drv.cycles();
        let blocks: Vec<[u8; 16]> = (0..8u8).map(|i| [i; 16]).collect();
        let cts = drv.try_process_stream(&blocks, Direction::Encrypt).unwrap();
        assert_eq!(cts.len(), 8);
        // Verify each against the reference cipher.
        let aes = rijndael::Aes128::new(&[0u8; 16]);
        for (b, ct) in blocks.iter().zip(&cts) {
            assert_eq!(*ct, aes.encrypt_block(b));
        }
        let spent = drv.cycles() - start;
        // Full-rate: ~50 cycles per block, not ~50 per block plus drain.
        assert!(
            spent <= LATENCY_CYCLES * 8 + 10,
            "stream not pipelined: {spent} cycles for 8 blocks"
        );
        assert!(
            spent >= LATENCY_CYCLES * 8,
            "faster than physically possible"
        );
    }

    #[test]
    fn stream_overlap_beats_independent_blocks() {
        // The decoupled-bus claim, quantified: a pipelined stream of N
        // blocks costs ≈ load + N·50 cycles, strictly less than N
        // independent process_block calls (N·(1 + 50)).
        const N: usize = 16;
        let blocks: Vec<[u8; 16]> = (0..N as u8).map(|i| [i; 16]).collect();

        let mut streamed = IpDriver::new(EncryptCore::new());
        streamed.write_key(&[3u8; 16]);
        let start = streamed.cycles();
        let stream_out = streamed
            .try_process_stream(&blocks, Direction::Encrypt)
            .unwrap();
        let stream_cycles = streamed.cycles() - start;

        let mut blocking = IpDriver::new(EncryptCore::new());
        blocking.write_key(&[3u8; 16]);
        let start = blocking.cycles();
        let block_out: Vec<[u8; 16]> = blocks
            .iter()
            .map(|b| blocking.try_process_block(b, Direction::Encrypt).unwrap())
            .collect();
        let block_cycles = blocking.cycles() - start;

        assert_eq!(stream_out, block_out);
        // One load edge, then one block per latency period.
        assert_eq!(stream_cycles, 1 + N as u64 * LATENCY_CYCLES);
        // Each independent call pays its own load edge.
        assert_eq!(block_cycles, N as u64 * (1 + LATENCY_CYCLES));
        assert!(
            stream_cycles < block_cycles,
            "overlap must beat blocking: {stream_cycles} vs {block_cycles}"
        );
    }

    #[test]
    fn stream_with_identical_blocks_keeps_count() {
        // All-same plaintexts produce all-same ciphertexts; the completion
        // counter must still see every block.
        let mut drv = IpDriver::new(EncryptCore::new());
        drv.write_key(&[7u8; 16]);
        let blocks = vec![[0xABu8; 16]; 5];
        let cts = drv.try_process_stream(&blocks, Direction::Encrypt).unwrap();
        assert_eq!(cts.len(), 5);
        assert!(cts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn wedged_stream_reports_instead_of_aborting() {
        // Write a key to the decrypt-only device WITHOUT the setup walk:
        // the engine holds every data block until the walk finishes, so
        // the stream stalls forever. The fallible API must report it.
        let mut drv = IpDriver::new(DecryptCore::new());
        drv.clock(&CoreInputs {
            setup: true,
            wr_key: true,
            din: 7,
            ..Default::default()
        });
        let blocks = [[0u8; 16]; 2];
        let err = drv
            .try_process_stream(&blocks, Direction::Decrypt)
            .unwrap_err();
        assert!(
            matches!(err, StreamError::Wedged { completed: 0, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("wedged"), "{err}");
    }

    #[test]
    fn unsupported_direction_is_reported_before_clocking() {
        let mut drv = IpDriver::new(EncryptCore::new());
        drv.write_key(&[0u8; 16]);
        let before = drv.cycles();
        let err = drv
            .try_process_stream(&[[0u8; 16]], Direction::Decrypt)
            .unwrap_err();
        assert!(
            matches!(err, StreamError::UnsupportedDirection { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("cannot decrypt"), "{err}");
        assert_eq!(
            drv.cycles(),
            before,
            "no edges issued for a rejected stream"
        );
    }

    #[test]
    fn busy_core_rejects_second_stream() {
        let mut drv = IpDriver::new(EncryptCore::new());
        drv.write_key(&[0u8; 16]);
        // Load one block by hand: after its load edge it is in flight.
        drv.clock(&CoreInputs {
            wr_data: true,
            din: block_to_u128(&[1u8; 16]),
            ..Default::default()
        });
        let before = drv.cycles();
        assert_eq!(
            drv.try_process_stream(&[[2u8; 16]], Direction::Encrypt)
                .unwrap_err(),
            StreamError::CoreBusy
        );
        assert_eq!(drv.cycles(), before, "no edges issued for a refused stream");
        // Once the block drains, the core takes a stream again.
        drv.idle(LATENCY_CYCLES);
        let ct = drv
            .try_process_stream(&[[2u8; 16]], Direction::Encrypt)
            .unwrap();
        assert_eq!(
            ct[0],
            rijndael::Aes128::new(&[0u8; 16]).encrypt_block(&[2u8; 16])
        );
    }

    #[test]
    fn empty_stream_completes_without_clocking() {
        let mut drv = IpDriver::new(EncryptCore::new());
        drv.write_key(&[0u8; 16]);
        let before = drv.cycles();
        let out = drv.try_process_stream(&[], Direction::Encrypt).unwrap();
        assert!(out.is_empty());
        assert_eq!(drv.cycles(), before);
    }

    #[test]
    fn hardware_aes_runs_modes() {
        let key = [0x42u8; 16];
        let hw = HardwareAes::new(EncDecCore::new(), &key);
        let sw = rijndael::Aes128::new(&key);

        let mut hw_data = vec![0x11u8; 64];
        let mut sw_data = hw_data.clone();
        Cbc::encrypt(&hw, &[9u8; 16], &mut hw_data).unwrap();
        Cbc::encrypt(&sw, &[9u8; 16], &mut sw_data).unwrap();
        assert_eq!(hw_data, sw_data);
        Cbc::decrypt(&hw, &[9u8; 16], &mut hw_data).unwrap();
        assert_eq!(hw_data, vec![0x11u8; 64]);

        let mut stream = vec![5u8; 30];
        Ctr::apply(&hw, &[0u8; 16], &mut stream);
        let mut expect = vec![5u8; 30];
        Ctr::apply(&sw, &[0u8; 16], &mut expect);
        assert_eq!(stream, expect);
    }

    #[test]
    fn hardware_aes_all_vectors_via_ecb() {
        for v in AES128_VECTORS {
            let mut key = [0u8; 16];
            key.copy_from_slice(v.key);
            let hw = HardwareAes::new(EncDecCore::new(), &key);
            let mut data = v.plaintext.to_vec();
            Ecb::encrypt(&hw, &mut data).unwrap();
            assert_eq!(&data[..], &v.ciphertext[..], "{}", v.source);
            Ecb::decrypt(&hw, &mut data).unwrap();
            assert_eq!(&data[..], &v.plaintext[..], "{}", v.source);
        }
    }

    #[test]
    #[should_panic(expected = "cannot decrypt")]
    fn encrypt_only_hardware_rejects_decrypt() {
        let hw = HardwareAes::new(EncryptCore::new(), &[0u8; 16]);
        let mut block = [0u8; 16];
        hw.decrypt_in_place(&mut block);
    }

    #[test]
    fn debug_formats() {
        let hw = HardwareAes::new(EncryptCore::new(), &[0u8; 16]);
        assert!(format!("{hw:?}").contains("variant: Encrypt"));
    }
}
