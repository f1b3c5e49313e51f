//! Training for the dual classifier heads (the artifact's §A.4.4 flow).
//!
//! The paper trains its TrailNet-style classifiers on 12,000 rendered
//! images with randomized positions, angles, and textures. This module
//! provides the equivalent trainable stage for the reproduction: a
//! multinomial-logistic-regression trainer that fits the two 3-class
//! linear heads on a feature vector per image, with mini-batch SGD and
//! cross-entropy loss. Every caller feeds it raw pixels — enough to learn
//! the strongly structured corridor renders, while keeping training fast
//! enough to run inside the test suite.

use rose_sim_core::rng::SimRng;
use serde::{Deserialize, Serialize};

/// One training example: a feature vector and its two class labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Example {
    /// Feature vector.
    pub features: Vec<f32>,
    /// Angular class (0 = left, 1 = center, 2 = right).
    pub angular: usize,
    /// Lateral class (0 = left, 1 = center, 2 = right).
    pub lateral: usize,
}

impl Example {
    /// Creates an example, validating labels.
    ///
    /// # Panics
    ///
    /// Panics if either label is not in `0..3`.
    pub fn new(features: Vec<f32>, angular: usize, lateral: usize) -> Example {
        assert!(angular < 3 && lateral < 3, "labels must be in 0..3");
        Example {
            features,
            angular,
            lateral,
        }
    }
}

/// Hyperparameters for head training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Epochs over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            learning_rate: 0.05,
            weight_decay: 1e-4,
            epochs: 40,
            batch_size: 16,
        }
    }
}

/// A single 3-class softmax head under training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftmaxHead {
    /// Weights, shape (3, d).
    weights: Vec<f32>,
    /// Biases, shape (3).
    biases: [f32; 3],
    dim: usize,
}

impl SoftmaxHead {
    /// Creates a zero-initialized head over `dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> SoftmaxHead {
        assert!(dim > 0, "feature dimension must be nonzero");
        SoftmaxHead {
            weights: vec![0.0; 3 * dim],
            biases: [0.0; 3],
            dim,
        }
    }

    /// Class probabilities for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the feature length mismatches.
    pub fn predict(&self, features: &[f32]) -> [f32; 3] {
        assert_eq!(features.len(), self.dim, "feature length");
        let mut logits = [0.0f32; 3];
        for (c, logit) in logits.iter_mut().enumerate() {
            let row = &self.weights[c * self.dim..(c + 1) * self.dim];
            *logit = self.biases[c] + row.iter().zip(features).map(|(w, x)| w * x).sum::<f32>();
        }
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps = logits.map(|l| (l - max).exp());
        let sum: f32 = exps.iter().sum();
        exps.map(|e| e / sum)
    }

    /// The argmax class.
    pub fn classify(&self, features: &[f32]) -> usize {
        let p = self.predict(features);
        let mut best = 0;
        for class in 1..3 {
            if p[class].total_cmp(&p[best]).is_gt() {
                best = class;
            }
        }
        best
    }

    /// One SGD step on a mini-batch; returns the mean cross-entropy loss.
    fn step(&mut self, batch: &[(&[f32], usize)], cfg: &TrainConfig) -> f32 {
        let mut grad_w = vec![0.0f32; 3 * self.dim];
        let mut grad_b = [0.0f32; 3];
        let mut loss = 0.0;
        for &(x, label) in batch {
            let p = self.predict(x);
            loss -= p[label].max(1e-9).ln();
            for c in 0..3 {
                let err = p[c] - (c == label) as u8 as f32;
                grad_b[c] += err;
                for (g, &xv) in grad_w[c * self.dim..(c + 1) * self.dim].iter_mut().zip(x) {
                    *g += err * xv;
                }
            }
        }
        let scale = cfg.learning_rate / batch.len() as f32;
        for (w, g) in self.weights.iter_mut().zip(&grad_w) {
            *w -= scale * (g + cfg.weight_decay * *w);
        }
        for (b, g) in self.biases.iter_mut().zip(&grad_b) {
            *b -= scale * g;
        }
        loss / batch.len() as f32
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Final-epoch mean cross-entropy of the angular head.
    pub angular_loss: f32,
    /// Final-epoch mean cross-entropy of the lateral head.
    pub lateral_loss: f32,
    /// Epochs executed.
    pub epochs: usize,
}

/// The dual-head trainer.
#[derive(Debug, Clone)]
pub struct HeadTrainer {
    /// The angular classifier head.
    pub angular: SoftmaxHead,
    /// The lateral classifier head.
    pub lateral: SoftmaxHead,
    config: TrainConfig,
    rng: SimRng,
}

impl HeadTrainer {
    /// Creates a trainer for `dim`-dimensional features.
    pub fn new(dim: usize, config: TrainConfig, rng: &SimRng) -> HeadTrainer {
        HeadTrainer {
            angular: SoftmaxHead::new(dim),
            lateral: SoftmaxHead::new(dim),
            config,
            rng: rng.split("head-trainer"),
        }
    }

    /// Trains both heads with mini-batch SGD.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty.
    pub fn fit(&mut self, examples: &[Example]) -> TrainReport {
        assert!(!examples.is_empty(), "cannot train on an empty dataset");
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut angular_loss = 0.0;
        let mut lateral_loss = 0.0;
        for _ in 0..self.config.epochs {
            // Fisher–Yates shuffle from the deterministic stream.
            for i in (1..order.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            angular_loss = 0.0;
            lateral_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(self.config.batch_size.max(1)) {
                let ang: Vec<(&[f32], usize)> = chunk
                    .iter()
                    .map(|&i| (examples[i].features.as_slice(), examples[i].angular))
                    .collect();
                let lat: Vec<(&[f32], usize)> = chunk
                    .iter()
                    .map(|&i| (examples[i].features.as_slice(), examples[i].lateral))
                    .collect();
                angular_loss += self.angular.step(&ang, &self.config);
                lateral_loss += self.lateral.step(&lat, &self.config);
                batches += 1;
            }
            angular_loss /= batches as f32;
            lateral_loss /= batches as f32;
        }
        TrainReport {
            angular_loss,
            lateral_loss,
            epochs: self.config.epochs,
        }
    }

    /// Accuracy of both heads on a labeled set: `(angular, lateral)`.
    pub fn evaluate(&self, examples: &[Example]) -> (f64, f64) {
        if examples.is_empty() {
            return (0.0, 0.0);
        }
        let mut ang = 0;
        let mut lat = 0;
        for e in examples {
            if self.angular.classify(&e.features) == e.angular {
                ang += 1;
            }
            if self.lateral.classify(&e.features) == e.lateral {
                lat += 1;
            }
        }
        (
            ang as f64 / examples.len() as f64,
            lat as f64 / examples.len() as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linearly separable 3-class toy problem in 2-D.
    fn toy_dataset(n_per_class: usize, rng: &mut SimRng) -> Vec<Example> {
        let centers = [(-2.0f32, 0.0f32), (0.0, 2.0), (2.0, 0.0)];
        let mut out = Vec::new();
        for (label, (cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                let x = cx + rng.normal(0.0, 0.4) as f32;
                let y = cy + rng.normal(0.0, 0.4) as f32;
                // lateral label mirrors angular for the toy problem.
                out.push(Example::new(vec![x, y], label, 2 - label));
            }
        }
        out
    }

    #[test]
    fn learns_separable_classes() {
        let mut rng = SimRng::new(42);
        let train = toy_dataset(60, &mut rng);
        let test = toy_dataset(30, &mut rng);
        let mut trainer = HeadTrainer::new(2, TrainConfig::default(), &SimRng::new(7));
        let report = trainer.fit(&train);
        assert!(report.angular_loss < 0.3, "loss {}", report.angular_loss);
        let (acc_a, acc_l) = trainer.evaluate(&test);
        assert!(acc_a > 0.95, "angular accuracy {acc_a}");
        assert!(acc_l > 0.95, "lateral accuracy {acc_l}");
    }

    #[test]
    fn untrained_head_is_uniform() {
        let head = SoftmaxHead::new(4);
        let p = head.predict(&[1.0, -1.0, 0.5, 2.0]);
        for prob in p {
            assert!((prob - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let mut rng = SimRng::new(3);
        let data = toy_dataset(20, &mut rng);
        let run = || {
            let mut t = HeadTrainer::new(2, TrainConfig::default(), &SimRng::new(9));
            t.fit(&data);
            t.angular.predict(&[0.3, 0.8])
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        HeadTrainer::new(2, TrainConfig::default(), &SimRng::new(1)).fit(&[]);
    }
}
