//! One module per experiment, named after its subcommand; each `run`
//! returns its [`crate::Report`].

pub(crate) mod exp_ablation;
pub(crate) mod exp_chaos;
pub(crate) mod exp_kernel_bench;
pub(crate) mod exp_lcs;
pub(crate) mod exp_lis_rounds;
pub(crate) mod exp_mul_rounds;
pub(crate) mod exp_service;
pub(crate) mod exp_space;
pub(crate) mod table1;
