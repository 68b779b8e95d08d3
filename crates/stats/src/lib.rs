//! # inet-stats — statistical tooling for network science
//!
//! The measurement side of Internet topology modeling leans on a small set of
//! statistical operations that are repeated everywhere: log-binned
//! distributions, complementary CDFs, least-squares fits on log axes (growth
//! rates, scaling exponents), maximum-likelihood power-law fitting, and
//! weighted random sampling for preferential-attachment dynamics. This crate
//! implements all of them from scratch with explicit numerics:
//!
//! * [`summary`] — running moments (Welford), percentiles.
//! * [`histogram`] — linear and logarithmic binning with density
//!   normalization.
//! * [`ccdf`] — empirical CDF/CCDF over integer or real samples.
//! * [`binned`] — binned conditional means for spectra like `c(k)` or
//!   `k̄_nn(k)`.
//! * [`regression`] — ordinary least squares with standard errors; log–log
//!   and exponential-growth convenience fits.
//! * [`powerlaw`] — discrete/continuous power-law MLE
//!   (Clauset–Shalizi–Newman), Kolmogorov–Smirnov `x_min` scan, parametric
//!   bootstrap confidence intervals, and power-law samplers for tests.
//! * [`sampler`] — a Fenwick-tree [`sampler::DynamicWeightedSampler`] with
//!   `O(log n)` draw *and* update, the workhorse of every
//!   preferential-attachment generator in the workspace, plus a static
//!   cumulative-table sampler.
//! * [`dist`] — scalar distributions on top of [`rng::StdRng`] (exponential,
//!   log-normal via Box–Muller, Zipf by inversion).
//! * [`rng`] — the workspace's one RNG, its deterministic seeding helpers,
//!   and the seeded case loop the property tests run on.
//!
//! Everything is deterministic given an RNG seed, returns plain `f64`
//! results, and avoids `unwrap` on user data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binned;
pub mod ccdf;
pub mod dist;
pub mod histogram;
pub mod powerlaw;
pub mod regression;
pub mod rng;
pub mod sampler;
pub mod summary;

pub use binned::{binned_mean_by_int, binned_mean_log, BinnedSpectrum};
pub use ccdf::{ccdf_f64, ccdf_u64, Ccdf};
pub use histogram::{Histogram, LogHistogram};
pub use powerlaw::PowerLawFit;
pub use regression::{exp_growth_fit, linear_fit, loglog_fit, ExpGrowthFit, LinearFit};
pub use sampler::{CumulativeSampler, DynamicWeightedSampler};
pub use summary::Summary;
