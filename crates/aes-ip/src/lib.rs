//! The paper's contribution: a low device occupation AES-128 soft IP
//! (Panato, Barcelos, Reis — DATE 2003).
//!
//! Mixed 32-/128-bit datapath: `ByteSub` runs 32 bits per clock through 4
//! S-box ROMs while `ShiftRow`/`MixColumn`/`AddKey` run 128 bits wide, so a
//! round costs 5 cycles and a block 50; round keys are generated on the
//! fly by the `KStran` slice, so none are stored.
//!
//! * [`datapath`] — the combinational hardware blocks as pure functions;
//! * [`core`] — cycle-accurate models of the three devices
//!   (encrypt / decrypt / both);
//! * [`bus`] — the bus-interface wrapper with the `Data_In`/`Out`
//!   processes and `data_ok` handshake (paper Figures 8–9);
//! * [`rtl_mount`] — mounts a core in the event-driven [`rtl`] simulator
//!   (signals, clock, VCD waveforms);
//! * [`alt`] — the alternative architectures the paper compares against
//!   (all-32-bit, full-128-bit, 8-bit serial);
//! * [`netlist_gen`] — structural netlist generation for logic-cell,
//!   memory and timing estimation on the Altera device models.
//!
//! # Examples
//!
//! ```
//! use aes_ip::core::{CoreInputs, CycleCore, EncryptCore};
//!
//! let mut core = EncryptCore::new();
//! core.rising_edge(&CoreInputs { setup: true, wr_key: true, din: 0, ..Default::default() });
//! core.rising_edge(&CoreInputs { wr_data: true, din: 0, ..Default::default() });
//! let mut out = Default::default();
//! for _ in 0..=50 {
//!     out = core.rising_edge(&CoreInputs::default());
//! }
//! assert!(out.data_ok);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alt;
pub mod alt_netlist;
pub mod bus;
pub mod core;
pub mod datapath;
pub mod fault;
pub mod gate_sim;
pub mod netlist_gen;
pub mod rtl_mount;

pub use crate::bus::{HardwareAes, IpDriver, StreamError};
pub use crate::core::{
    CoreInputs, CoreOutputs, CoreVariant, CycleCore, DecryptCore, Direction, EncDecCore,
    EncryptCore, LATENCY_CYCLES,
};
