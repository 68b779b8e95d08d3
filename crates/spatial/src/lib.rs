//! # inet-spatial — spatial substrates for geography-aware topology models
//!
//! Router and AS locations are strongly clustered: empirical work (Yook,
//! Jeong & Barabási, PNAS 2002) measured a box-counting **fractal dimension
//! of ≈ 1.5** for Internet router positions. Spatial topology models (Waxman,
//! BRITE-style, the Serrano competition–adaptation model) therefore need
//! point sets with controllable fractal dimension, plus distance machinery:
//!
//! * [`Point2`] — plain 2-D points with the Euclidean metric.
//! * [`pointset`] — uniform point clouds in the unit square.
//! * [`fractal`] — randomized Cantor-dust point sets with **tunable
//!   box-counting dimension** `D_f ∈ (0, 2]` via recursive quad subdivision.
//! * [`boxcount`] — a box-counting dimension estimator used to validate the
//!   generators (and usable on any point set).
//! * [`index`] — a uniform-grid spatial index for radius queries, used by
//!   geometric graph generators.
//!
//! All generation is deterministic given the RNG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxcount;
pub mod fractal;
pub mod index;
pub mod point;
pub mod pointset;

pub use boxcount::box_counting_dimension;
pub use fractal::FractalSet;
pub use index::GridIndex;
pub use point::Point2;
pub use pointset::uniform_points;
