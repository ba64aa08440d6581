//! Transmission-line physics substrate for the DIVOT reproduction.
//!
//! The DIVOT paper's security primitive is the **Impedance Inhomogeneity
//! Pattern (IIP)**: the characteristic-impedance-vs-distance profile of a
//! physical transmission line (Tx-line), fixed by manufacturing variation
//! and therefore unique, unpredictable, and non-reproducible. This crate
//! simulates that physics from first principles:
//!
//! * [`iip`] — fabrication-process model: spatially correlated impedance
//!   deviation along the line (an Ornstein–Uhlenbeck process over distance),
//!   plus deterministic features shared across lines from the same board
//!   (connector discontinuities).
//! * [`scatter`] — a time-domain bounce (lattice) simulation of the 1-D wave
//!   equation in layered media: forward/backward travelling waves, partial
//!   reflection/transmission at every impedance step, per-segment
//!   attenuation, reactive terminations, and 3-port tap junctions. This is
//!   the physical process a TDR observes.
//! * [`response`] — batched acquisition on top of [`scatter`]: one engine
//!   run per distinct (network, env-state) pair, served from an explicit
//!   environment-keyed [`ResponseCache`] so equivalent-time sampling never
//!   re-simulates an unchanged physical state; drive changes re-render
//!   from cached impulse responses instead of re-simulating.
//! * [`impulse`] — the LTI fast path behind that reuse: one unit-impulse
//!   kernel run per (network, env-state), then any drive shape / amplitude /
//!   rise time by convolution (direct for settled edges, FFT otherwise).
//! * [`termination`] — load models: matched/open/short/resistive and the
//!   R ∥ C input of a real receiver chip (whose replacement is the cold-boot
//!   / Trojan signature of Fig. 9(b,c)).
//! * [`env`](mod@env) — environmental effects: temperature (dielectric-constant
//!   shift, Fig. 8), vibration (chirped mechanical perturbation, §IV-C),
//!   and aging drift.
//! * [`attack`] — physical attacks as transformations of the line network:
//!   load swap, wire-tap (stub junction), magnetic probe (local mutual-
//!   inductance bump), solder scars.
//! * [`board`] — fabricate families of lines from one process, e.g. the
//!   six-line prototype PCB of §IV-A.
//!
//! # Example: the backscatter of an edge
//!
//! ```
//! use divot_txline::board::{Board, BoardConfig};
//! use divot_txline::scatter::SimConfig;
//!
//! let board = Board::fabricate(&BoardConfig::paper_prototype(), 1);
//! let line = board.line(0);
//! let response = line.network().edge_response(&SimConfig::default());
//! // Before the termination echo, the distributed IIP backscatter is weak
//! // (mV-scale on a ~0.5 V edge) — the below-noise-floor regime APC targets.
//! let early = response.window(0.6e-9, 2.0 * line.one_way_delay().0 * 0.9);
//! assert!(early.peak() > 1e-5 && early.peak() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod board;
pub mod env;
pub mod iip;
pub mod impulse;
pub mod response;
pub mod scatter;
pub mod sparam;
pub mod termination;
pub mod topology;
pub mod units;

pub use attack::Attack;
pub use board::{Board, BoardConfig};
pub use env::Environment;
pub use iip::{FabricationProcess, IipProfile};
pub use impulse::ImpulseResponse;
pub use response::ResponseCache;
pub use scatter::{Network, SimConfig, Tap, TxLine};
pub use termination::Termination;
