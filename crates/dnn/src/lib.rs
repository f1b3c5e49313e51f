//! DNN inference for the RoSÉ reproduction — the ONNX-Runtime substitute.
//!
//! The paper's companion computer runs DNN-based end-to-end controllers
//! (TrailNet-style dual-headed ResNets, Section 4.2.2) through ONNX-Runtime,
//! with matmuls/convolutions dispatched to Gemmini. This crate provides:
//!
//! * [`resnet`] — the evaluated ResNet6/11/14/18/34 variants, each
//!   described once, as a shape-only [`resnet::InferencePlan`] (for SoC
//!   timing).
//! * [`lower`] — lowering of a plan to [`rose_socsim::TargetOp`] sequences:
//!   convolutions map to the accelerator (or to im2col + matmul CPU kernels
//!   on accelerator-less SoCs), everything else to CPU kernels, plus
//!   ONNX-Runtime-style per-node and per-session framework overhead.
//! * [`perception`] — the calibrated perception head used by the
//!   closed-loop evaluations (see DESIGN.md §1 for the substitution
//!   rationale): classification correctness follows each model's
//!   validation accuracy (Table 3), and softmax confidence grows with
//!   model capacity — reproducing the paper's observation that
//!   higher-capacity DNNs make more confident predictions and hence
//!   sharper trajectory corrections (Section 5.2).
//! * [`trainer`] — the trainer of the dual classifier heads (the
//!   artifact's §A.4.4 flow), fed rendered pixels by the workspace's
//!   dataset generator.

#![deny(missing_docs)]

pub mod lower;
pub mod perception;
pub mod resnet;
pub mod trainer;

pub use perception::{ClassProbs, PerceptionHead, PerceptionOutput};
pub use resnet::{DnnModel, InferencePlan};
pub use trainer::{Example, HeadTrainer, TrainConfig};
