//! The evaluated ResNet controller variants.
//!
//! Section 4.2.2 / Table 3 evaluate TrailNet-architecture ResNets of depth
//! 6, 11, 14, 18, and 34: a convolutional stem, stages of residual basic
//! blocks, global average pooling, and two 3-class linear heads (angular
//! and lateral). [`DnnModel`] enumerates the variants, and
//! [`DnnModel::plan`] yields each one's shape-only [`InferencePlan`]: the
//! single description of the network, which [`crate::lower`] turns into
//! SoC operations to time inference.

use rose_socsim::gemmini::ConvShape;
use rose_socsim::kernel::ElemKind;
use std::fmt;

/// The DNN controller variants of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DnnModel {
    /// 6-layer ResNet: fastest, least accurate.
    ResNet6,
    /// 11-layer ResNet.
    ResNet11,
    /// 14-layer ResNet: the paper's sweet spot on BOOM+Gemmini.
    ResNet14,
    /// 18-layer ResNet.
    ResNet18,
    /// 34-layer ResNet: most accurate in validation, worst in flight.
    ResNet34,
}

rose_sim_core::snap_tag!(DnnModel {
    ResNet6 = 0,
    ResNet11 = 1,
    ResNet14 = 2,
    ResNet18 = 3,
    ResNet34 = 4,
});

impl fmt::Display for DnnModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ResNet{}", self.depth())
    }
}

/// Architecture description of one variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetSpec {
    /// Input tensor shape (C, H, W).
    pub input: (usize, usize, usize),
    /// Stem convolution output channels (7×7, stride 2).
    pub stem_channels: usize,
    /// Residual basic blocks per stage.
    pub stage_blocks: Vec<usize>,
    /// Output channels per stage.
    pub stage_channels: Vec<usize>,
    /// Classes per head (3: left / center / right).
    pub classes: usize,
}

impl DnnModel {
    /// All variants, smallest to largest.
    pub fn all() -> [DnnModel; 5] {
        [
            DnnModel::ResNet6,
            DnnModel::ResNet11,
            DnnModel::ResNet14,
            DnnModel::ResNet18,
            DnnModel::ResNet34,
        ]
    }

    /// Nominal depth (weight layers).
    pub fn depth(&self) -> usize {
        match self {
            DnnModel::ResNet6 => 6,
            DnnModel::ResNet11 => 11,
            DnnModel::ResNet14 => 14,
            DnnModel::ResNet18 => 18,
            DnnModel::ResNet34 => 34,
        }
    }

    /// Validation accuracy from Table 3.
    pub fn validation_accuracy(&self) -> f64 {
        match self {
            DnnModel::ResNet6 => 0.72,
            DnnModel::ResNet11 => 0.78,
            DnnModel::ResNet14 => 0.82,
            DnnModel::ResNet18 => 0.83,
            DnnModel::ResNet34 => 0.86,
        }
    }

    /// Peak softmax confidence of the model's predictions. Higher-capacity
    /// models classify with higher confidence (Section 5.2), producing
    /// sharper trajectory corrections through Equation 2.
    pub fn confidence(&self) -> f64 {
        match self {
            DnnModel::ResNet6 => 0.48,
            DnnModel::ResNet11 => 0.60,
            DnnModel::ResNet14 => 0.72,
            DnnModel::ResNet18 => 0.84,
            DnnModel::ResNet34 => 0.95,
        }
    }

    /// The architecture spec (evaluation input resolution, 3×160×160).
    pub fn spec(&self) -> ResNetSpec {
        let (stem, blocks, channels): (usize, Vec<usize>, Vec<usize>) = match self {
            DnnModel::ResNet6 => (32, vec![1, 1], vec![32, 64]),
            DnnModel::ResNet11 => (48, vec![1, 1, 1, 1], vec![48, 96, 192, 384]),
            DnnModel::ResNet14 => (48, vec![1, 1, 2, 2], vec![48, 96, 192, 384]),
            DnnModel::ResNet18 => (64, vec![2, 2, 2, 2], vec![64, 128, 256, 512]),
            DnnModel::ResNet34 => (64, vec![3, 4, 6, 3], vec![64, 128, 256, 512]),
        };
        ResNetSpec {
            input: (3, 160, 160),
            stem_channels: stem,
            stage_blocks: blocks,
            stage_channels: channels,
            classes: 3,
        }
    }

    /// Builds the shape-only inference plan at the evaluation resolution.
    pub fn plan(&self) -> InferencePlan {
        InferencePlan::from_spec(&self.to_string(), &self.spec())
    }
}

/// A shape-only operator, sufficient for timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// A convolution (runs on the accelerator when present).
    Conv(ConvShape),
    /// An elementwise pass over `n` values.
    Elementwise {
        /// Element count.
        n: usize,
        /// Operation kind.
        kind: ElemKind,
    },
    /// Pooling over `out_elems` outputs with a square `window`.
    Pool {
        /// Output element count.
        out_elems: usize,
        /// Window edge length.
        window: usize,
    },
    /// A fully-connected layer (`out × in` matvec).
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Softmax over `n` values.
    Softmax {
        /// Element count.
        n: usize,
    },
}

/// A complete shape-only inference description.
#[derive(Debug, Clone, PartialEq)]
pub struct InferencePlan {
    name: String,
    ops: Vec<PlanOp>,
    input_elems: usize,
}

impl InferencePlan {
    /// Derives the plan for a spec.
    pub fn from_spec(name: &str, spec: &ResNetSpec) -> InferencePlan {
        let (c_in, h, w) = spec.input;
        let mut ops = Vec::new();
        // Stem: 7×7 stride-2 conv + BN + ReLU + 2×2 maxpool.
        let (mut ch, mut hh, mut ww) = (spec.stem_channels, h / 2, w / 2);
        ops.push(PlanOp::Conv(ConvShape {
            in_c: c_in,
            out_c: ch,
            out_h: hh,
            out_w: ww,
            ksize: 7,
        }));
        let mut elems = ch * hh * ww;
        ops.push(PlanOp::Elementwise {
            n: elems,
            kind: ElemKind::BatchNorm,
        });
        ops.push(PlanOp::Elementwise {
            n: elems,
            kind: ElemKind::Relu,
        });
        hh /= 2;
        ww /= 2;
        elems = ch * hh * ww;
        ops.push(PlanOp::Pool {
            out_elems: elems,
            window: 2,
        });

        // Residual stages.
        for (stage, (&blocks, &out_ch)) in spec
            .stage_blocks
            .iter()
            .zip(&spec.stage_channels)
            .enumerate()
        {
            for block in 0..blocks {
                let downsample = stage > 0 && block == 0;
                let in_ch = ch;
                if downsample {
                    hh /= 2;
                    ww /= 2;
                }
                let out_elems = out_ch * hh * ww;
                // conv1 (maybe strided / channel-expanding).
                ops.push(PlanOp::Conv(ConvShape {
                    in_c: in_ch,
                    out_c: out_ch,
                    out_h: hh,
                    out_w: ww,
                    ksize: 3,
                }));
                ops.push(PlanOp::Elementwise {
                    n: out_elems,
                    kind: ElemKind::BatchNorm,
                });
                ops.push(PlanOp::Elementwise {
                    n: out_elems,
                    kind: ElemKind::Relu,
                });
                // conv2.
                ops.push(PlanOp::Conv(ConvShape {
                    in_c: out_ch,
                    out_c: out_ch,
                    out_h: hh,
                    out_w: ww,
                    ksize: 3,
                }));
                ops.push(PlanOp::Elementwise {
                    n: out_elems,
                    kind: ElemKind::BatchNorm,
                });
                // Projection shortcut when shape changes.
                if in_ch != out_ch || downsample {
                    ops.push(PlanOp::Conv(ConvShape {
                        in_c: in_ch,
                        out_c: out_ch,
                        out_h: hh,
                        out_w: ww,
                        ksize: 1,
                    }));
                }
                ops.push(PlanOp::Elementwise {
                    n: out_elems,
                    kind: ElemKind::Add,
                });
                ops.push(PlanOp::Elementwise {
                    n: out_elems,
                    kind: ElemKind::Relu,
                });
                ch = out_ch;
            }
        }

        // Global average pool + two heads.
        ops.push(PlanOp::Pool {
            out_elems: ch,
            window: hh.clamp(1, 8),
        });
        for _ in 0..2 {
            ops.push(PlanOp::Linear {
                in_features: ch,
                out_features: spec.classes,
            });
            ops.push(PlanOp::Softmax { n: spec.classes });
        }

        InferencePlan {
            name: name.to_string(),
            ops,
            input_elems: c_in * h * w,
        }
    }

    /// Plan name (the model it was derived from).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shape-only operators in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Input element count (C·H·W).
    pub fn input_elems(&self) -> usize {
        self.input_elems
    }

    /// Total convolution/linear multiply-accumulates.
    pub fn macs(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                PlanOp::Conv(s) => s.macs(),
                PlanOp::Linear {
                    in_features,
                    out_features,
                } => (in_features * out_features) as u64,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_accuracies() {
        let accs: Vec<f64> = DnnModel::all()
            .iter()
            .map(|m| m.validation_accuracy())
            .collect();
        assert_eq!(accs, vec![0.72, 0.78, 0.82, 0.83, 0.86]);
        // Monotone with capacity, as is confidence.
        for pair in DnnModel::all().windows(2) {
            assert!(pair[0].validation_accuracy() < pair[1].validation_accuracy());
            assert!(pair[0].confidence() < pair[1].confidence());
        }
    }

    #[test]
    fn macs_grow_with_depth() {
        let macs: Vec<u64> = DnnModel::all().iter().map(|m| m.plan().macs()).collect();
        for pair in macs.windows(2) {
            assert!(pair[0] < pair[1], "MACs not monotone: {macs:?}");
        }
        // ResNet34 ≈ 2× ResNet18 (the classic ratio).
        let r = macs[4] as f64 / macs[3] as f64;
        assert!((1.6..2.4).contains(&r), "R34/R18 MAC ratio {r}");
    }

    /// Each model's plan is its only description of the network, so every
    /// shape is pinned: (model, conv ops, all ops, MACs, input elements).
    #[test]
    fn plans_are_pinned() {
        let table = [
            (DnnModel::ResNet6, 6, 24, 82_534_784, 76_800),
            (DnnModel::ResNet11, 12, 40, 266_344_704, 76_800),
            (DnnModel::ResNet14, 16, 54, 399_055_104, 76_800),
            // Stem + 16 block convs + 3 projection shortcuts.
            (DnnModel::ResNet18, 20, 68, 925_289_472, 76_800),
            (DnnModel::ResNet34, 36, 124, 1_869_007_872, 76_800),
        ];
        for (model, convs, ops, macs, input_elems) in table {
            let plan = model.plan();
            let plan_convs = plan
                .ops()
                .iter()
                .filter(|o| matches!(o, PlanOp::Conv(_)))
                .count();
            assert_eq!(plan_convs, convs, "{model} conv ops");
            assert_eq!(plan.ops().len(), ops, "{model} ops");
            assert_eq!(plan.macs(), macs, "{model} MACs");
            assert_eq!(plan.input_elems(), input_elems, "{model} input elements");
        }
    }

    #[test]
    fn depth_names() {
        assert_eq!(DnnModel::ResNet14.to_string(), "ResNet14");
        assert_eq!(DnnModel::ResNet14.depth(), 14);
    }
}
