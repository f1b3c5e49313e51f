//! Lowering inference plans to SoC target operations.
//!
//! An [`InferencePlan`] lowers to a sequence of [`TargetOp`]s mirroring how
//! ONNX-Runtime executes the graph on the paper's software stack
//! (Section 3.3): convolutions dispatch to the Gemmini accelerator when the
//! SoC has one, or to im2col + matmul CPU kernels otherwise; pooling,
//! normalization, activations, and softmax run on the CPU; and each node
//! pays framework overhead (graph traversal, shape checks, allocation). A
//! per-inference session component models ONNX-Runtime's FP32 pre/post
//! processing and session bookkeeping — its size is calibrated so
//! single-inference latencies land in the regime of Table 3 (see
//! EXPERIMENTS.md for paper-vs-measured).

use crate::resnet::{DnnModel, InferencePlan, PlanOp};
use rose_socsim::config::SocConfig;
use rose_socsim::kernel::{ElemKind, Kernel};
use rose_socsim::program::ScriptedProgram;
use rose_socsim::{Soc, TargetOp};

/// Elements of FP32 pre/post-processing per inference (image decode,
/// resize, normalize, NHWC→NCHW, output copies).
const SESSION_ELEMS: usize = 4_000_000;
/// Abstract ops of per-inference session bookkeeping.
const SESSION_OPS: usize = 500_000;
/// Scale of the per-inference session graph walk (ONNX-Runtime's
/// pointer-heavy interpretation layer; dependency-serialized, so its cost
/// is memory-latency-bound on every core).
const SESSION_GRAPH_TENSORS: usize = 1_300;
/// Tensors touched per framework node (per-node overhead scale).
const NODE_TENSORS: usize = 4;

/// Lowers one inference of `plan` to target operations.
///
/// The sequence begins after the image has been received from the bridge
/// (the closed-loop application issues its own `Recv`) and ends after the
/// classifier outputs are ready (the application then issues `Send`).
pub fn lower_inference(plan: &InferencePlan, has_accelerator: bool) -> Vec<TargetOp> {
    let mut ops = Vec::with_capacity(plan.ops().len() * 2 + 4);

    // Image staging + preprocessing (decode, resize to the network input,
    // normalize to f32).
    ops.push(TargetOp::CpuKernel(Kernel::Memcpy {
        bytes: plan.input_elems(),
    }));
    ops.push(TargetOp::CpuKernel(Kernel::Elementwise {
        n: SESSION_ELEMS,
        kind: ElemKind::BatchNorm,
    }));
    ops.push(TargetOp::CpuKernel(Kernel::Control { ops: SESSION_OPS }));
    ops.push(TargetOp::CpuKernel(Kernel::FrameworkNode {
        tensors: SESSION_GRAPH_TENSORS,
    }));

    for op in plan.ops() {
        // Per-node framework overhead.
        ops.push(TargetOp::CpuKernel(Kernel::FrameworkNode {
            tensors: NODE_TENSORS,
        }));
        match *op {
            PlanOp::Conv(shape) => {
                if has_accelerator {
                    ops.push(TargetOp::AccelConv(shape));
                } else {
                    let (m, k, n) = shape.as_gemm();
                    if shape.ksize > 1 {
                        ops.push(TargetOp::CpuKernel(Kernel::Im2col {
                            channels: shape.in_c,
                            ksize: shape.ksize,
                            out_elems: shape.out_h * shape.out_w,
                        }));
                    }
                    ops.push(TargetOp::CpuKernel(Kernel::MatMul { m, k, n }));
                }
            }
            PlanOp::Elementwise { n, kind } => {
                ops.push(TargetOp::CpuKernel(Kernel::Elementwise { n, kind }));
            }
            PlanOp::Pool { out_elems, window } => {
                ops.push(TargetOp::CpuKernel(Kernel::Pool { out_elems, window }));
            }
            PlanOp::Linear {
                in_features,
                out_features,
            } => {
                // Single-vector matvec: always CPU (too small for the mesh).
                ops.push(TargetOp::CpuKernel(Kernel::MatMul {
                    m: 1,
                    k: in_features,
                    n: out_features,
                }));
            }
            PlanOp::Softmax { n } => {
                ops.push(TargetOp::CpuKernel(Kernel::Softmax { n }));
            }
        }
    }
    ops
}

/// Times one standalone inference of `model` on an SoC of `config`,
/// returning the latency in cycles.
///
/// Builds a fresh SoC running a scripted program of the lowered ops and
/// advances it to completion.
pub fn time_inference(config: &SocConfig, model: DnnModel) -> u64 {
    time_plan(config, &model.plan())
}

/// Times one standalone inference of an explicit plan (see
/// [`time_inference`]).
pub fn time_plan(config: &SocConfig, plan: &InferencePlan) -> u64 {
    let ops = lower_inference(plan, config.has_accelerator());
    let program = ScriptedProgram::new(ops);
    let mut soc = Soc::new(config.clone(), Box::new(program));
    while !soc.halted() {
        soc.run_cycles(100_000_000);
    }
    // Subtract the trailing idle of the final quantum.
    soc.stats().cycles - soc.stats().idle_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(cycles: u64) -> f64 {
        cycles as f64 / 1e6
    }

    #[test]
    fn accelerated_inference_uses_the_mesh() {
        let plan = DnnModel::ResNet6.plan();
        let ops = lower_inference(&plan, true);
        assert!(ops.iter().any(|o| matches!(o, TargetOp::AccelConv(_))));
        assert!(!ops
            .iter()
            .any(|o| matches!(o, TargetOp::CpuKernel(Kernel::Im2col { .. }))));
    }

    #[test]
    fn cpu_only_inference_lowered_to_im2col_matmul() {
        let plan = DnnModel::ResNet6.plan();
        let ops = lower_inference(&plan, false);
        assert!(!ops.iter().any(|o| matches!(o, TargetOp::AccelConv(_))));
        assert!(ops
            .iter()
            .any(|o| matches!(o, TargetOp::CpuKernel(Kernel::Im2col { .. }))));
        assert!(ops
            .iter()
            .any(|o| matches!(o, TargetOp::CpuKernel(Kernel::MatMul { .. }))));
    }

    #[test]
    fn latency_ordering_matches_table3() {
        // Table 3 shape: latency grows with depth on both SoCs, and
        // BOOM+Gemmini is faster than Rocket+Gemmini for every model.
        let a = SocConfig::config_a();
        let b = SocConfig::config_b();
        let mut last_a = 0;
        for model in DnnModel::all() {
            let la = time_inference(&a, model);
            let lb = time_inference(&b, model);
            assert!(la > last_a, "{model}: BOOM latency not monotone");
            assert!(
                lb as f64 > la as f64 * 1.1,
                "{model}: Rocket ({:.1} ms) should be slower than BOOM ({:.1} ms)",
                ms(lb),
                ms(la)
            );
            last_a = la;
        }
    }

    #[test]
    fn latencies_in_table3_regime() {
        // Loose windows around Table 3 (BOOM+Gemmini: 77–225 ms).
        let a = SocConfig::config_a();
        let small = ms(time_inference(&a, DnnModel::ResNet6));
        let large = ms(time_inference(&a, DnnModel::ResNet34));
        assert!(
            (30.0..160.0).contains(&small),
            "ResNet6 on A: {small:.1} ms"
        );
        assert!(
            (120.0..450.0).contains(&large),
            "ResNet34 on A: {large:.1} ms"
        );
        assert!(large > 2.0 * small, "R34 should be >2x R6");
    }

    #[test]
    fn cpu_only_is_dramatically_slower() {
        // Section 5.1: ~6 s image-to-actuation latency with BOOM-only vs
        // 85 ms with the accelerator — more than an order of magnitude.
        let a = time_inference(&SocConfig::config_a(), DnnModel::ResNet14);
        let c = time_inference(&SocConfig::config_c(), DnnModel::ResNet14);
        assert!(
            c > 10 * a,
            "CPU-only ({:.0} ms) should be >10x accelerated ({:.0} ms)",
            ms(c),
            ms(a)
        );
        assert!(ms(c) > 1000.0, "CPU-only ResNet14 should exceed 1 s");
    }
}
