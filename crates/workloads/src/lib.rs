//! Workload generation for the partial snapshot experiments, tests and
//! examples.
//!
//! * [`dist`] — component-selection distributions (uniform, Zipf);
//! * [`portfolio`] — the stock-portfolio scenario from the paper's
//!   introduction (a market of stocks, portfolios holding a few of them,
//!   price-tick streams).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod portfolio;

pub use dist::IndexDist;
pub use portfolio::{Market, MarketConfig, Portfolio, PriceTicks};
