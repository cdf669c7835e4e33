//! Block benchmarking.
//!
//! dPerf's central simplification is *block benchmarking*: rather than
//! simulating every instruction, measure (or model) each basic block once and
//! scale by how often it executes — "the use of benchmarking by block makes it
//! possible for dPerf results to be scaled-up while maintaining accuracy"
//! (§III-D.2). A [`BlockBencher`] turns a compute block plus its parameter
//! environment into a duration. The one back-end, [`ModeledBencher`], stands
//! in for the original's PAPI hardware counters: work expression → flops →
//! time via a [`MachineModel`] and an [`OptLevel`] factor. Its output depends
//! on its inputs only, so every figure is exactly reproducible.

use crate::compiler::OptLevel;
use crate::ir::{ComputeBlock, ParamEnv};
use crate::machine::MachineModel;
use p2p_common::SimDuration;

/// Something that can tell how long one execution of a block takes.
pub trait BlockBencher {
    /// Duration of a single execution of `block` under `env`.
    fn block_time(&self, block: &ComputeBlock, env: &ParamEnv) -> SimDuration;
}

/// Deterministic machine-model back-end.
#[derive(Debug, Clone)]
pub struct ModeledBencher {
    /// The node model.
    pub machine: MachineModel,
    /// Compiler optimisation level (scales all block times).
    pub opt: OptLevel,
}

impl ModeledBencher {
    /// Model blocks on the given machine at the given optimisation level.
    pub fn new(machine: MachineModel, opt: OptLevel) -> Self {
        ModeledBencher { machine, opt }
    }
}

impl BlockBencher for ModeledBencher {
    fn block_time(&self, block: &ComputeBlock, env: &ParamEnv) -> SimDuration {
        let flops = block.flops.eval(env).max(0.0);
        self.machine.time_for_flops(flops) * self.opt.time_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Expr;

    fn block(flops: f64) -> ComputeBlock {
        ComputeBlock::new("kernel", Expr::c(flops))
    }

    #[test]
    fn modeled_times_scale_with_work_and_opt_level() {
        let env = ParamEnv::new();
        let o3 = ModeledBencher::new(MachineModel::xeon_em64t_3ghz(), OptLevel::O3);
        let o0 = ModeledBencher::new(MachineModel::xeon_em64t_3ghz(), OptLevel::O0);
        let t_small = o3.block_time(&block(1e6), &env);
        let t_big = o3.block_time(&block(1e8), &env);
        assert!(t_big.as_secs_f64() / t_small.as_secs_f64() > 90.0);
        let t_o0 = o0.block_time(&block(1e8), &env);
        let ratio = t_o0.as_secs_f64() / t_big.as_secs_f64();
        assert!((ratio - OptLevel::O0.time_factor()).abs() < 0.05);
    }

    #[test]
    fn modeled_times_honour_the_parameter_environment() {
        let bencher = ModeledBencher::new(MachineModel::xeon_em64t_3ghz(), OptLevel::O3);
        let b = ComputeBlock::new("sweep", Expr::p("N").mul(Expr::p("my_rows")));
        let small = bencher.block_time(&b, &ParamEnv::new().with("N", 100.0).with("my_rows", 10.0));
        let large = bencher.block_time(
            &b,
            &ParamEnv::new().with("N", 100.0).with("my_rows", 1000.0),
        );
        assert!(large > small);
    }
}
