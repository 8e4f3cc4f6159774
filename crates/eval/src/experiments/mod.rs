//! One module per paper figure/table.
//!
//! Each module computes its numbers once, in a typed `compute(env)`
//! (`compute_a`/`compute_b` for the two-panel Figures 6 and 7), and
//! renders that result with `run(env) -> Report` (`run_a`/`run_b`).
//! `run` only formats: every number it prints comes from the typed
//! result. The paper's claims are asserted on those typed results in
//! the workspace's `tests/paper_shapes.rs`, which holds every claim.
//! Figures 2, 3, 8–11 and Table 1 also keep their older unit tests
//! here, which assert a subset of those claims on the same `compute`
//! results; Figures 6 and 7 are asserted only in `paper_shapes`. The
//! rest of this crate's tests cover its machinery (environment caps,
//! metrics, report formatting, initializer training).

pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
