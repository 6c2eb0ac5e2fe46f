//! # mm-core — distributed match-making (Mullender & Vitányi, PODC 1985)
//!
//! The paper's primary contribution, implemented as a library:
//!
//! * [`Strategy`] — the Shotgun Locate framework: total functions
//!   `P, Q : U → 2^U`. A server residing at node `i` posts its
//!   `(port, address)` at each node in `P(i)`; a client at node `j`
//!   queries each node in `Q(j)`. They meet at `P(i) ∩ Q(j)`.
//! * [`RendezvousMatrix`] — the `n×n` matrix `R` with entries
//!   `r_ij = P(i) ∩ Q(j)`, the paper's central combinatorial object,
//!   with its constraints (M1)–(M4) as checkable properties.
//! * [`bounds`] — Propositions 1 and 2 (the `m(n) ≥ (2/n)·Σ√k_i` lower
//!   bound and its corollaries), the probabilistic `pq/n` analysis of §2.2,
//!   and the weighted (M3′) cost model.
//! * [`strategies`] — every strategy the paper names: broadcasting,
//!   sweeping, centralized, checkerboard ("truly distributed", Prop. 3),
//!   block/rectangular trade-offs, Manhattan grid row/column and its
//!   d-dimensional generalization, hypercube address-splitting,
//!   cube-connected-cycles, projective-plane lines, hierarchical,
//!   tree path-to-root, the general-network decomposition strategy, and
//!   Hash Locate.
//! * [`lift`] — Proposition 4: lifting an `n`-node strategy to `4n` nodes
//!   with exactly twice the average cost.
//! * [`robust`] — §2.4 redundancy: combinators enforcing
//!   `#(P(i) ∩ Q(j)) ≥ f+1` and crash-survival analysis.
//! * [`paper_examples`] — the six rendezvous matrices printed in §2.3.1,
//!   reproduced entry-for-entry.
//!
//! # Quick start
//!
//! ```
//! use mm_core::{Strategy, strategies::Checkerboard, bounds};
//!
//! let n = 64;
//! let s = Checkerboard::new(n);
//! // every client finds every server ...
//! s.validate().unwrap();
//! // ... at the truly-distributed cost of about 2*sqrt(n) messages
//! let m = s.average_cost();
//! assert!(m <= 2.0 * (n as f64).sqrt() + 2.0);
//! // and no strategy can beat the Proposition 2 bound
//! let k = s.to_matrix().multiplicities();
//! assert!(m >= bounds::prop2_lower_bound(&k, n) - 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod bounds;
pub mod lift;
pub mod matrix;
pub mod paper_examples;
pub mod port;
pub mod robust;
pub mod strategies;
pub mod strategy;

pub use matrix::RendezvousMatrix;
pub use port::Port;
pub use strategy::{BoxedStrategy, Strategy, StrategyError};
