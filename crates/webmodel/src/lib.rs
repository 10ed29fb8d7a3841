//! # caai-webmodel
//!
//! A synthetic model of the web-server population CAAI measured.
//!
//! The paper's census probes 63,124 Alexa-ranked servers (§VII-B). The raw
//! server list is not reproducible, but every population attribute that
//! shapes Table IV is published as a marginal distribution, and this crate
//! generates servers from those marginals:
//!
//! * ground-truth TCP algorithm mix, including OS defaults, non-default
//!   tuning (e.g. HTCP on fast-transfer hosts), old kernels (BIC), and TCP
//!   proxies/load balancers that answer in place of IIS servers;
//! * minimum accepted MSS (Table II);
//! * maximum repeated pipelined HTTP requests (Fig. 6);
//! * default and longest-findable page sizes (Fig. 7), standing in for the
//!   PlanetLab page-search tool;
//! * window ceilings (service load / BDP limits) that determine which
//!   `w_max` rung of CAAI's 512→64 ladder succeeds (Table IV columns);
//! * sender quirks behind the special-case traces (§VII-B, Figs. 13–17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod mss;
pub mod pages;
pub mod population;

pub use http::RequestAcceptanceModel;
pub use mss::{MssAcceptance, PROBE_MSS_LADDER};
pub use pages::PageModel;
pub use population::{PopulationConfig, WebServer};
