//! Sample drawing: the reservoir, stratified samples and the materialized
//! weighted-sample artifact.

pub mod materialized;
pub mod reservoir;
pub mod stratified;

pub use materialized::MaterializedSample;
pub use reservoir::{sample_distinct, Reservoir};
pub use stratified::{StratifiedSample, StratumInfo};
